//go:build race

package cluster

// raceEnabled reports a -race build, where allocation counts are not
// comparable with a normal build.
const raceEnabled = true
