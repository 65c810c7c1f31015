//go:build !race

package taskmgr

const raceEnabled = false
