package core

// Harnesses for hooks_test.go and dump_test.go, which live outside the
// package because internal/guard and internal/netlink import it.
var (
	StableVsRebuild      = stableVsRebuild
	StableVsRebuildOn    = stableVsRebuildOn
	BusySchedule         = busySchedule
	StaysOnStablePath    = staysOnStablePath
	CheckTableInvariants = checkTableInvariants
)
