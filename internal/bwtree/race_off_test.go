//go:build !race

package bwtree

const raceEnabled = false
