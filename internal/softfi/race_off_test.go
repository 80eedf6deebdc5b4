//go:build !race

package softfi

const raceDetector = false
