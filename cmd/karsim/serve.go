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
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// serveVersion is reported in kar_serve_build_info.
const serveVersion = "karsim-serve/1"

// runServe runs the long-running scenario/verify daemon until SIGINT
// or SIGTERM, then drains: readiness drops, queued jobs cancel,
// in-flight jobs get -drain to finish before being context-cancelled.
func runServe(args []string, _ io.Writer) error {
	fs := flag.NewFlagSet("karsim serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8377", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using -addr :0)")
	queue := fs.Int("queue", 64, "admission queue bound; submissions beyond it get 429 + Retry-After")
	workers := fs.Int("workers", 2, "concurrent job executors")
	jobWorkers := fs.Int("job-workers", 4, "default per-job run/sweep parallelism when a request sets none")
	retain := fs.Int("retain", 1024, "finished jobs retained for status/result/event queries")
	drain := fs.Duration("drain", 30*time.Second, "grace for in-flight jobs on shutdown before they are cancelled")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s := serve.New(serve.Config{
		QueueCap:   *queue,
		Workers:    *workers,
		JobWorkers: *jobWorkers,
		StoreCap:   *retain,
		Version:    serveVersion,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	httpSrv := &http.Server{Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "karsim serve: listening on %s (queue=%d workers=%d)\n",
		ln.Addr(), *queue, *workers)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "karsim serve: draining...")

	// Drain jobs first (queued cancel, in-flight finish under the
	// grace), then close the listener — status queries keep working
	// while the last jobs complete.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := s.Shutdown(drainCtx)

	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-errc // Serve returned ErrServerClosed
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	fmt.Fprintln(os.Stderr, "karsim serve: done")
	return nil
}
