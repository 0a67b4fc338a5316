package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// launchFlag selects launcher mode: `benchmark -launch USAGE.json PROG
// ARGS...` runs PROG, forwards SIGTERM/SIGINT to it, and writes its
// usage to USAGE.json.
//
// The benchmark starts the programs under test through this small
// intermediary because on Linux a child's ru_maxrss starts at its
// parent's peak RSS at the time of the exec: a harness holding hundreds
// of megabytes of generated input would otherwise report its own size as
// every child's peak.
const launchFlag = "-launch"

func launch(args []string) int {
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -launch USAGE.json PROG ARGS...")
		return 2
	}
	// Pdeathsig fires when the creating thread exits; pin it.
	runtime.LockOSThread()
	cmd := exec.Command(args[1], args[2:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	sig := make(chan os.Signal, 1) // one pending signal is all that is forwarded
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	t := time.Now()
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: launch: %v\n", err)
		return 2
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case s := <-sig:
				cmd.Process.Signal(s)
			case <-done:
				return
			}
		}
	}()
	cmd.Wait()
	wall := time.Since(t)
	close(done)

	u := usage{Wall: wall.Seconds(), Exit: cmd.ProcessState.ExitCode()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		u.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	raw, err := json.Marshal(u)
	if err == nil {
		err = os.WriteFile(args[0], raw, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: launch: %v\n", err)
		return 2
	}
	return 0
}
