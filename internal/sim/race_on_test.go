//go:build race

package sim_test

// raceDetector reports that the test binary was built with -race, under
// which the reference core's walk to a timeout runs twenty times slower.
const raceDetector = true
