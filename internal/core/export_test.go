package core

// Harnesses for hooks_test.go, which lives outside the package because
// internal/guard imports it.
var (
	StableVsRebuild   = stableVsRebuild
	StableVsRebuildOn = stableVsRebuildOn
	BusySchedule      = busySchedule
	StaysOnStablePath = staysOnStablePath
)
