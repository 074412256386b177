//go:build !race

package sortx

const raceEnabled = false
