//go:build !race

package beam

const raceEnabled = false
