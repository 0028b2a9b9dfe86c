//go:build !linux

package main

// startIdleSpinners is Linux-only; elsewhere the rmi workload runs without
// them.
func startIdleSpinners() (stop func(), err error) { return func() {}, nil }

func idleSpinChild() bool { return false }
