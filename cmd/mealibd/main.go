// Command mealibd serves one MEALib runtime to many tenants over a
// length-prefixed binary protocol. Each connection is a session: a private
// buffer namespace under a memory quota, with launches interleaved fairly
// against every other tenant's and small compatible submissions coalesced
// into shared flights.
//
// Usage:
//
//	mealibd                              # serve on unix:/tmp/mealibd.sock
//	mealibd -listen tcp:127.0.0.1:9431   # serve on TCP
//	mealibd -quota 67108864              # 64 MiB default tenant quota
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mealib/internal/mealibd"
	"mealib/internal/mealibrt"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

func main() {
	listen := flag.String("listen", "unix:/tmp/mealibd.sock", "endpoint as network:address (unix:PATH or tcp:HOST:PORT)")
	quota := flag.Int64("quota", 0, "default per-tenant memory quota in bytes (0 = unlimited)")
	inflight := flag.Int("max-inflight", 0, "default per-tenant in-flight launch cap (0 = unlimited)")
	queued := flag.Int("max-queued", 0, "default per-tenant admission queue cap (0 = unlimited)")
	batchMax := flag.Int("batch-max", 0, "max small descriptors coalesced per merged launch (0 = default 8, 1 = off)")
	batchBytes := flag.Int64("batch-bytes", 0, "footprint ceiling in bytes for a batchable descriptor (0 = default 256 KiB)")
	pipeline := flag.Bool("pipeline", true, "wave-granularity pipelining of dependent launches")
	staging := flag.Int64("staging", 0, "out-of-core staging region in bytes carved from stack 0 (0 = out-of-core off)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "mealibd:", err)
		os.Exit(1)
	}

	network, addr, ok := strings.Cut(*listen, ":")
	if !ok || (network != "unix" && network != "tcp") {
		fail(fmt.Errorf("bad -listen %q, want unix:PATH or tcp:HOST:PORT", *listen))
	}

	rcfg := mealibrt.DefaultConfig()
	rcfg.Tracer = telemetry.New()
	rcfg.WavePipeline = *pipeline
	rcfg.Driver.StagingSize = units.Bytes(*staging)
	rt, err := mealibrt.New(rcfg)
	if err != nil {
		fail(err)
	}
	srv, err := mealibd.New(mealibd.Config{
		Runtime:            rt,
		BatchMax:           *batchMax,
		BatchBytes:         units.Bytes(*batchBytes),
		DefaultQuota:       units.Bytes(*quota),
		DefaultMaxInFlight: *inflight,
		DefaultMaxQueued:   *queued,
	})
	if err != nil {
		fail(err)
	}

	if network == "unix" {
		// A stale socket from an unclean exit blocks the bind; remove it.
		if _, err := os.Stat(addr); err == nil {
			_ = os.Remove(addr)
		}
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		fail(err)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "mealibd: shutting down")
		_ = srv.Close()
	}()

	fmt.Printf("mealibd: serving on %s:%s\n", network, addr)
	if err := srv.Serve(ln); err != nil {
		fail(err)
	}
}
