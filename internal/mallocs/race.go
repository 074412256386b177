//go:build race

package mallocs

func init() { raceEnabled = true }
