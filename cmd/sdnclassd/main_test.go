package main

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestRemovedFlagsAreUnknown covers the flags of the deleted trace-replay
// mode: the daemon used to accept them and serve idle, now each is a flag
// error before anything is bound.
func TestRemovedFlagsAreUnknown(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "replay"}, {"-ip-engine", "mbt"}, {"-churn-rate", "1"}, {"-class", "acl"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want an unknown-flag error", args, err)
		}
	}
}

func TestBadLogLevelIsRejected(t *testing.T) {
	err := run([]string{"-log-level", "nope"})
	if err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Fatalf("err = %v, want an invalid -log-level error", err)
	}
}

// TestOccupiedPortReturnsAnError is the non-zero exit path: a bind failure
// must come back from run, not leave a daemon waiting for a signal.
func TestOccupiedPortReturnsAnError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()

	done := make(chan error, 1)
	go func() { done <- run([]string{"-http", ln.Addr().String(), "-log-level", "error"}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run on an occupied port returned nil")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run on an occupied port did not return")
	}
}
