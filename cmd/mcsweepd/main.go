// Command mcsweepd is the standalone sweep worker daemon: it serves the
// distributed-sweep worker protocol (internal/dist) over HTTP so a
// coordinator on another machine can shard campaign cells onto this host:
//
//	mcsweepd -listen :9137
//	mcsim -scenario base.json -sweep grid.json -distributed \
//	      -connect http://host-a:9137,http://host-b:9137
//
// Endpoints:
//
//	POST /run      a WorkUnit of cells; the response streams one
//	               CellResult per line as cells complete (a body over
//	               32 MiB is refused with 413)
//	GET  /healthz  liveness: uptime, in-flight units, cell tallies, and
//	               the registered scenario kinds
//	GET  /metrics  Prometheus text exposition — cells run/failed, kernel
//	               events fired, busy units, uptime, resident memory
//
// -debug-addr opts into a second, separate listener carrying the Go
// diagnostic surface: net/http/pprof under /debug/pprof/ and the expvar
// JSON dump (including every /metrics counter) at /debug/vars. It is a
// different port on purpose — profilers and debug dumps stay off the
// address the coordinator (and any scrape config) points at, so they can
// be firewalled separately or left unbound in production.
//
// SIGTERM or SIGINT stops the daemon gracefully: both listeners close at
// once, and work units in flight get a grace period to finish streaming
// before their connections are cut.
//
// The daemon executes cells sequentially per request (the coordinator
// keeps one unit in flight per worker); run one daemon per core — or
// several behind one load balancer — to scale a host. It is the toolkit's
// one HTTP worker (`mcsim -worker` is the stdio worker), packaged
// separately so worker hosts need only the execution half of the toolkit
// and campaign artifacts (grids, checkpoints, reports) stay
// coordinator-side.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcs/internal/dist"
	"mcs/internal/scenario"

	// Ecosystem packages register their scenarios on import; the daemon
	// must mirror mcsim's registry or remote cells would fail to dispatch.
	_ "mcs/internal/autoscale"
	_ "mcs/internal/banking"
	_ "mcs/internal/faas"
	_ "mcs/internal/federation"
	_ "mcs/internal/gaming"
	_ "mcs/internal/graphproc"
	_ "mcs/internal/opendc"
	_ "mcs/internal/social"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcsweepd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, status io.Writer) error {
	fs := flag.NewFlagSet("mcsweepd", flag.ContinueOnError)
	listen := fs.String("listen", ":9137", "address to serve the worker protocol on")
	debugAddr := fs.String("debug-addr", "", "optional address for the pprof/expvar debug surface (off by default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	var debugLn net.Listener
	if *debugAddr != "" {
		if debugLn, err = net.Listen("tcp", *debugAddr); err != nil {
			ln.Close()
			return err
		}
	}
	return serve(ctx, ln, debugLn, status)
}

// shutdownGrace bounds how long a stopping daemon waits for the work units
// in flight to finish before it closes their connections; the coordinator
// re-dispatches the cells it did not receive.
const shutdownGrace = 20 * time.Second

// serve runs the worker protocol on an already-bound listener (split from
// run so tests can bind port 0 and learn the address) until ctx is done,
// then shuts down gracefully and returns nil, or an error if the grace
// period ran out. A non-nil debugLn additionally serves the pprof/expvar
// surface on DefaultServeMux.
func serve(ctx context.Context, ln, debugLn net.Listener, status io.Writer) error {
	srv := dist.NewServer()
	protocol := newHTTPServer(srv.Handler())
	servers := []*http.Server{protocol}
	failed := make(chan error, 1)
	go func() { failed <- protocol.Serve(ln) }()
	if debugLn != nil {
		// Republish the daemon's metrics into the process-global expvar
		// table so /debug/vars carries them alongside memstats; the blank
		// net/http/pprof import already hung /debug/pprof on the mux.
		srv.Registry().PublishExpvar()
		fmt.Fprintf(status, "mcsweepd: debug surface (pprof, expvar) on http://%s/debug/pprof/\n", debugLn.Addr())
		debug := newHTTPServer(nil)
		servers = append(servers, debug)
		go debug.Serve(debugLn)
	}
	fmt.Fprintf(status, "mcsweepd: serving %d scenario kinds on %s\n", len(scenario.List()), ln.Addr())
	select {
	case err := <-failed:
		for _, s := range servers[1:] {
			s.Close()
		}
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(status, "mcsweepd: shutting down (grace %v)\n", shutdownGrace)
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	var errs []error
	for _, s := range servers {
		if err := s.Shutdown(grace); err != nil {
			s.Close()
			errs = append(errs, fmt.Errorf("shutdown: %w", err))
		}
	}
	return errors.Join(errs...)
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so slow or stalled connections cannot pile up. Bodies and
// responses are not timed: a work unit legitimately streams results for as
// long as its cells run.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer wraps h (nil: DefaultServeMux) with the daemon's
// connection limits.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}
