//go:build race

package softfi

// raceDetector reports that the test binary was built with -race, under
// which the functional executor runs more than ten times slower.
const raceDetector = true
