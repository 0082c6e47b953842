// Command sdnclassd is the classifier daemon. It serves the multi-tenant
// wire API of internal/server: any number of independent classifier tables
// (tenants) behind one HTTP/JSON endpoint, with per-tenant rule CRUD,
// classify/classify-batch, engine selection and stats (see docs/SERVICE.md
// for the API reference). The wire API is the control channel of the
// paper's §III: a controller downloads rules, selects the lookup engine and
// reads punted verdicts over it.
//
//	sdnclassd [-http addr] [-log-level level]
//
// The daemon exits non-zero when the listen address cannot be bound and
// shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"sdnpc/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdnclassd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdnclassd", flag.ContinueOnError)
	httpAddr := fs.String("http", "127.0.0.1:8080", "wire-API listen address")
	logLevel := fs.String("log-level", "info", "log level (debug, info, warn, error)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return runServe(*httpAddr, *logLevel)
}

// runServe runs the multi-tenant wire-API daemon until SIGINT or SIGTERM,
// then shuts down gracefully. A bind failure surfaces as an error (and a
// non-zero exit) instead of a panic or a silent idle process.
func runServe(addr, level string) error {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("invalid -log-level %q: %w", level, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	return server.New(logger).ListenAndServe(ctx, addr)
}
