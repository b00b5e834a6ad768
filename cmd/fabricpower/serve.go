package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"fabricpower/internal/studyd"
)

// runServe boots the long-running study server: scenario specs in over
// HTTP, NDJSON result streams out, with admission control and
// cancellation for the process lifetime. SIGINT/SIGTERM drain
// in-flight studies (each sees its context cancelled, flushes the
// records it completed, and closes its stream with a study_finish
// line) before the listener shuts down.
func runServe(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "listen address (host:port; port 0 picks a free port)")
	maxConcurrent := fs.Int("max-concurrent", 2, "studies executing at once")
	maxQueue := fs.Int("max-queue", 8, "studies waiting for a slot beyond that; past both limits POST gets 429 + Retry-After")
	workers := fs.Int("workers", 0, "per-study sweep workers when the request doesn't pin ?workers= (0 = all cores)")
	studyTimeout := fs.Duration("study-timeout", 0, "per-study run deadline (0 = none)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain budget for in-flight streams")
	quiet := fs.Bool("q", false, "suppress per-request lifecycle logging on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	cfg := studyd.Config{
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		Workers:       *workers,
		StudyTimeout:  *studyTimeout,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "studyd: "+format+"\n", args...)
		}
	}
	s := studyd.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	srv := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(os.Stderr, "studyd: listening on http://%s (POST /v1/studies; healthz, expvar, pprof on the same mux)\n",
		ln.Addr().String())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	// Drain: stop admitting (503 on new POSTs), cancel every in-flight
	// study so its stream flushes and finishes, then close the listener
	// once handlers return or the grace budget runs out.
	fmt.Fprintf(os.Stderr, "studyd: shutting down (draining up to %s)\n", *grace)
	s.Stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
		return fmt.Errorf("serve: drain exceeded %s: %w", *grace, err)
	}
	return nil
}

// runSubmit posts a spec to a studyd server and streams the study's
// records to stdout — byte-compatible with `fabricpower run -json`
// against the same spec, for any server worker count.
func runSubmit(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8080", "studyd base URL")
	workers := fs.Int("workers", 0, "pin the server-side sweep worker count (0 = server default)")
	timeout := fs.Duration("timeout", 0, "give up on the whole submission after this long (0 = none)")
	telPath := fs.String("telemetry", "", "write the stream's point-tagged kernel telemetry lines to this file")
	tsample := fs.Uint64("tsample", 0, "telemetry sample interval in slots (0 = server default; needs -telemetry)")
	tracePath := fs.String("trace", "", "ask for the request's server-side execution profile and write it to this file as Chrome trace-event JSON")
	verbose := fs.Bool("v", false, "log stream progress events to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) > 1 {
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("submit: want exactly one spec path (or '-' for stdin), got %d", 1+fs.NArg())
		}
		rest = rest[:1]
	}
	if len(rest) != 1 {
		return fmt.Errorf("submit: want exactly one spec path (or '-' for stdin), got %d", len(rest))
	}
	var spec io.Reader = os.Stdin
	if path := rest[0]; path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		spec = f
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opt := studyd.SubmitOptions{Workers: *workers, Trace: *tracePath != ""}
	sinks := studyd.SubmitSinks{Records: w}
	var closers []func() error
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	if *telPath != "" {
		f, err := os.Create(*telPath)
		if err != nil {
			return err
		}
		closers = append(closers, f.Close)
		opt.Telemetry = true
		opt.TSample = *tsample
		sinks.Telemetry = f
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		closers = append(closers, f.Close)
		sinks.Trace = f
	}
	if *verbose {
		sinks.Events = func(line []byte) { os.Stderr.Write(line) }
	}

	res, err := studyd.Submit(ctx, nil, *server, spec, opt, sinks)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "submit: study %s: %d/%d points in %.1f ms\n",
			res.ID, res.Completed, res.Points, res.DurationMS)
	}
	// The stream completed but the sweep didn't: every record that ran
	// is already on stdout (like run -json after cancellation); surface
	// the server-side error and exit nonzero.
	if res.RemoteErr != "" {
		return errors.New("submit: server: " + res.RemoteErr)
	}
	return nil
}
