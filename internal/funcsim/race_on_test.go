//go:build race

package funcsim

// raceDetector reports that the test binary was built with -race, under
// which both executors run more than ten times slower.
const raceDetector = true
