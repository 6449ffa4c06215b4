package main

import (
	"os"
	"strconv"
	"sync/atomic"
)

// crashAfter is the crash-test seam, read once at startup: with
// PHISHCRAWL_CRASH_AFTER=n in the environment the process SIGKILLs itself
// right after the journal writes its n-th session frame, counted over every
// journal it opens. The hook runs under the journal's lock before that
// frame's batch is synced, so exactly n session frames exist when the kill
// lands, and the page cache keeps them. Crash smokes use it to kill a
// journaled crawl or a fleet worker at an exact record count instead of
// racing a kill against its progress.
// Unset or not a positive count, it is nil and nothing is hooked.
var crashAfter = crashHook(os.Getenv("PHISHCRAWL_CRASH_AFTER"))

func crashHook(v string) func() {
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return nil
	}
	var appended atomic.Int64
	return func() {
		if appended.Add(1) != int64(n) {
			return
		}
		// os.Process.Kill sends SIGKILL: no deferred call, flush or
		// further append runs. Block until the signal lands.
		if p, err := os.FindProcess(os.Getpid()); err == nil {
			p.Kill()
		}
		select {}
	}
}
