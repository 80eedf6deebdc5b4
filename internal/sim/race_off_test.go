//go:build !race

package sim_test

const raceDetector = false
