// Command fvld serves labeled provenance over HTTP: a multi-tenant label
// service hosting registered schemes (uploaded labelstore snapshots) and
// live or durable sessions fed by streamed step journals, with epoch-pinned
// point and set queries, per-tenant admission control, graceful drain and a
// Prometheus /metrics endpoint.
//
// Usage:
//
//	fvld -addr :8439 -data /var/lib/fvld
//
// On SIGINT/SIGTERM the server drains first — new writes are refused while
// in-flight work completes — and only then stops listening. Every acked step
// of a durable session is already on disk, so a restart resumes each session
// at its acked epoch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fvld: ")

	addr := flag.String("addr", "127.0.0.1:8439", "listen address")
	dataDir := flag.String("data", "", "data directory for scheme snapshots and durable sessions (empty: in-memory only)")
	workers := flag.Int("workers", 0, "query worker pool size per scheme (0: runtime default)")
	maxQueries := flag.Int("max-inflight", 16, "per-tenant bound on concurrently executing queries")
	maxStreams := flag.Int("max-streams", 4, "per-tenant bound on concurrently open step streams")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for the drain and connection teardown")
	flag.Parse()

	srv, err := service.New(service.Config{
		DataDir:            *dataDir,
		MaxInflightQueries: *maxQueries,
		MaxInflightStreams: *maxStreams,
		Workers:            *workers,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.Printf("listening on http://%s (data: %s)", ln.Addr(), dataDirLabel(*dataDir))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		log.Printf("%v: draining", sig)
	case err := <-serveErr:
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	log.Print("bye")
}

func dataDirLabel(dir string) string {
	if dir == "" {
		return "<in-memory>"
	}
	return fmt.Sprintf("%q", dir)
}
