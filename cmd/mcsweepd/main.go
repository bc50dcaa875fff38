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
// The daemon executes cells sequentially per request (the coordinator
// keeps one unit in flight per worker); run one daemon per core — or
// several behind one load balancer — to scale a host. It is the toolkit's
// one HTTP worker (`mcsim -worker` is the stdio worker), packaged
// separately so worker hosts need only the execution half of the toolkit
// and campaign artifacts (grids, checkpoints, reports) stay
// coordinator-side.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -debug-addr
	"os"
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
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mcsweepd:", err)
		os.Exit(1)
	}
}

func run(args []string, status io.Writer) error {
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
			return err
		}
	}
	return serve(ln, debugLn, status)
}

// serve runs the worker protocol on an already-bound listener (split from
// run so tests can bind port 0 and learn the address). A non-nil debugLn
// additionally serves the pprof/expvar surface on DefaultServeMux.
func serve(ln, debugLn net.Listener, status io.Writer) error {
	srv := dist.NewServer()
	if debugLn != nil {
		// Republish the daemon's metrics into the process-global expvar
		// table so /debug/vars carries them alongside memstats; the blank
		// net/http/pprof import already hung /debug/pprof on the mux.
		srv.Registry().PublishExpvar()
		fmt.Fprintf(status, "mcsweepd: debug surface (pprof, expvar) on http://%s/debug/pprof/\n", debugLn.Addr())
		go newHTTPServer(nil).Serve(debugLn)
	}
	fmt.Fprintf(status, "mcsweepd: serving %d scenario kinds on %s\n", len(scenario.List()), ln.Addr())
	return newHTTPServer(srv.Handler()).Serve(ln)
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
