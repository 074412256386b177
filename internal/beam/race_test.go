//go:build race

package beam

// raceEnabled reports a build with the race detector. Its runtime
// allocates inside sync primitives (semacquire under WaitGroup.Wait), so
// the MemStats.Mallocs pins skip under it and run in every other build.
const raceEnabled = true
