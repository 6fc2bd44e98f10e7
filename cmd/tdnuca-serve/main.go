// Command tdnuca-serve runs the experiment service: an HTTP/JSON
// backend that accepts simulation jobs, runs them on a bounded worker
// pool, and caches results by content address (see internal/serve).
//
//	tdnuca-serve -addr 127.0.0.1:8321 -workers 4 -cache-dir /var/cache/tdnuca
//
// On SIGTERM/SIGINT the server stops admitting, finishes (or, once the
// grace period expires, cancels) in-flight jobs, flushes the cache
// index and exits. The service's contract (exactly one simulation per
// content address, served digests equal to direct harness runs,
// corrupt cache entries never served, a leak-free drain) is held by the
// internal/serve package tests.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tdnuca/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "listen address")
	workers := flag.Int("workers", 2, "simulation worker pool size")
	queueCap := flag.Int("queue", 64, "admission queue capacity (excess submissions get 429)")
	cacheCap := flag.Int("cache", 128, "in-memory result cache entries")
	cacheDir := flag.String("cache-dir", "", "optional on-disk result cache directory")
	budget := flag.Uint64("budget", 0, "server-side cycle budget for jobs without max_cycles (0 = none)")
	grace := flag.Duration("drain-grace", 30*time.Second, "how long a drain waits for in-flight jobs before canceling them")
	flag.Parse()

	cfg := serve.Config{
		Workers:   *workers,
		QueueCap:  *queueCap,
		CacheCap:  *cacheCap,
		CacheDir:  *cacheDir,
		MaxCycles: *budget,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s.Start(ctx)

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("tdnuca-serve listening on %s (workers=%d queue=%d cache=%d dir=%q)",
		*addr, cfg.Workers, cfg.QueueCap, cfg.CacheCap, cfg.CacheDir)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("signal received; draining (grace %s)", *grace)
	dctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		log.Printf("drain: %v", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), time.Second)
	defer scancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("drained; bye")
}
