// Command mcamd runs an MCAM server entity: the "server machine" of the
// paper's Fig. 2, serving movie control connections over the chosen stack
// and streaming movies over UDP.
//
// Usage:
//
//	mcamd -addr 127.0.0.1:10240 -stack generated -movies 8 -frames 250
//	mcamd -data /var/lib/mcam            # durable disk-backed catalogue
//
// With -data the movie database lives on disk: movies recorded through
// OpRecord (and the seeded catalogue) survive restarts, and the seed only
// fills in names that are not already stored.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"xmovie"
	"xmovie/internal/equipment"
	"xmovie/internal/moviedb"
)

// parseTenant parses one -tenant value, "name:priority[:quota[:bw]]":
// admission priority, optional session quota (0 = unlimited) and optional
// aggregate stream-bandwidth cap in bytes/second (0 = uncapped).
func parseTenant(spec string) (string, xmovie.QoSClass, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 4 || parts[0] == "" {
		return "", xmovie.QoSClass{}, fmt.Errorf("want name:priority[:quota[:bw]], got %q", spec)
	}
	cls := xmovie.QoSClass{Name: parts[0]}
	fields := []*int{&cls.Priority, &cls.MaxSessions}
	for i, p := range parts[1:] {
		n, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return "", xmovie.QoSClass{}, fmt.Errorf("%q: %v", spec, err)
		}
		if i < 2 {
			*fields[i] = int(n)
		} else {
			cls.StreamBandwidth = n
		}
	}
	return parts[0], cls, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:10240", "control-plane listen address (TPKT/TCP)")
	stackName := flag.String("stack", "generated", "control stack: generated | handcoded")
	movies := flag.Int("movies", 8, "number of synthetic movies to seed")
	frames := flag.Int("frames", 250, "frames per synthetic movie")
	procs := flag.Int("procs", 0, "virtual processor limit for the generated stack (0 = unlimited)")
	dataDir := flag.String("data", "", "data directory for the durable disk store (empty = in-memory)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus metrics on http://ADDR/metrics (empty = off)")
	qosLog := flag.Bool("qos-log", false, "log one JSON line per QoS admission decision to stderr")
	tenants := map[string]xmovie.QoSClass{}
	flag.Func("tenant", "tenant class name:priority[:quota[:bw]] (repeatable)", func(spec string) error {
		name, cls, err := parseTenant(spec)
		if err != nil {
			return err
		}
		tenants[name] = cls
		return nil
	})
	flag.Parse()

	stack := xmovie.StackGenerated
	switch *stackName {
	case "generated":
	case "handcoded":
		stack = xmovie.StackHandcoded
	default:
		fmt.Fprintln(os.Stderr, "mcamd: unknown stack", *stackName)
		os.Exit(2)
	}

	eca := equipment.NewECA("mcamd")
	if err := eca.Register(equipment.NewCamera("cam1", 2048)); err != nil {
		fmt.Fprintln(os.Stderr, "mcamd:", err)
		os.Exit(1)
	}

	// The server builds the store (a durable sharded segment store under
	// -data, in-memory otherwise) and publishes it into env.Store for
	// seeding.
	env := &xmovie.ServerEnv{
		Dialer: xmovie.UDPDialer(), // Play requests carry host:port UDP addresses
		EUA:    equipment.NewEUA(eca, "mcamd"),
	}
	cfg := xmovie.ServerConfig{
		Addr:        *addr,
		MetricsAddr: *metricsAddr,
		Stack:       stack,
		Env:         env,
		DataDir:     *dataDir,
		Processors:  *procs,
	}
	if len(tenants) > 0 {
		cfg.Limits.QoS = xmovie.QoSPolicy{Tenants: tenants}
	}
	if *qosLog {
		cfg.QoSLog = os.Stderr
	}
	srv, err := xmovie.ListenAndServe(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcamd:", err)
		os.Exit(1)
	}
	// Seed the synthetic catalogue, keeping whatever the disk store already
	// holds — recorded movies must survive restarts.
	seeded := 0
	for i := 0; i < *movies; i++ {
		name := fmt.Sprintf("movie-%d", i)
		// Lazy synthesis: the disk store drains the generator straight to
		// its segment file chunk by chunk, the memory store serves it on
		// demand — either way the catalogue never materializes in RAM here.
		err := env.Store.Create(xmovie.SynthMovie(name, *frames, 25))
		switch {
		case err == nil:
			seeded++
		case errors.Is(err, moviedb.ErrExists):
			// already durable from a previous run
		default:
			fmt.Fprintln(os.Stderr, "mcamd:", err)
			os.Exit(1)
		}
	}
	store := "memory"
	if *dataDir != "" {
		store = "disk"
	}
	fmt.Printf("mcamd: serving %d movies (%d newly seeded) on %s (%s stack, %s store); streams go to client UDP addresses\n",
		len(env.Store.List()), seeded, srv.Addr(), *stackName, store)
	if srv.MetricsAddr() != "" {
		fmt.Printf("mcamd: metrics on http://%s/metrics\n", srv.MetricsAddr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("mcamd: shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mcamd:", err)
		os.Exit(1)
	}
}
