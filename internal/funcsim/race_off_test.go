//go:build !race

package funcsim

const raceDetector = false
