package wal

// InjectFaults is injectFaults for the tests of package wal_test, which
// drive the checking service over journals that fail on cue.
var InjectFaults = injectFaults
