// Command kvserver runs one live key-value node with a pluggable
// scheduling policy in front of its worker pool.
//
// Example — a two-node cluster on one machine:
//
//	kvserver -id 0 -addr 127.0.0.1:7100 -policy das &
//	kvserver -id 1 -addr 127.0.0.1:7101 -policy das -speed 0.5 &
//
// With -gossip-port the nodes form a gossip cluster: membership is
// discovered (no static server list), a joiner streams its owned keys
// from the existing members before serving a complete dataset, and a
// SIGTERM drains keys to the survivors before departing:
//
//	kvserver -id 0 -addr 127.0.0.1:7100 -gossip-port 7946 &
//	kvserver -id 1 -addr 127.0.0.1:7101 -gossip-port 7947 -join 127.0.0.1:7946 &
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/daskv/daskv/internal/cli"
	"github.com/daskv/daskv/internal/core"
	"github.com/daskv/daskv/internal/fault"
	"github.com/daskv/daskv/internal/kv"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/sizeclass"
	"github.com/daskv/daskv/internal/wal"
	"github.com/daskv/daskv/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kvserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id          = flag.Int("id", 0, "server identity on the cluster ring")
		addr        = flag.String("addr", "127.0.0.1:7100", "listen address")
		policyName  = flag.String("policy", "das", "scheduling policy: "+fmt.Sprint(cli.PolicyNames()))
		workers     = flag.Int("workers", 1, "worker pool size")
		baseCost    = flag.Duration("cost", 0, "synthetic per-op service cost (0 = none); value bytes add cost/KiB")
		speed       = flag.Float64("speed", 1.0, "speed factor (0.5 = half-speed server)")
		walDir      = flag.String("wal", "", "write-ahead-log directory: mutations are durable before acknowledgement, crash recovery replays at startup, a graceful shutdown compacts the log into one snapshot (empty = in-memory only)")
		walSync     = flag.String("wal-sync", "always", "WAL fsync policy: always | batch[:<window>] | coalesce[:<window>] | none (coalesce folds a window's mutations to one record per distinct key; writes ack at window close)")
		walSegSize  = flag.Int64("wal-segment-size", 16<<20, "WAL segment size in bytes before rotation")
		sweep       = flag.Duration("sweep", 30*time.Second, "how often expired keys are reclaimed (0 = default, negative = never)")
		replication = flag.Int("replication", 1, "replication factor the cluster runs with (informational; placement is client-side)")
		metrics     = flag.String("metrics", "", "optional HTTP listen address for /stats, /metrics, /healthz")
		pprofOn     = flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the -metrics listener")
		faultSpec   = flag.String("fault", "", "inject a connection fault, MODE[:ARG][:PROB] — e.g. delay:5ms:0.5, corrupt, stall, drop:0.1")
		faultSeed   = flag.Uint64("fault-seed", 1, "seed for fault-injection randomness")
		poolSplit   = flag.Float64("pool-split", 0, "fraction of workers dedicated to small ops (0 = single pool; requires -workers >= 2)")
		sizeQuant   = flag.Float64("size-quantile", 0, "payload-size quantile the learned small/large threshold tracks (0 = default 0.9)")
		sizeOverr   = flag.Int64("size-threshold", 0, "fixed small/large threshold in bytes, overriding the learned quantile (0 = learn online)")
		sizeDecay   = flag.Float64("size-decay", 0, "per-observation decay of the size sketch, closer to 1 = longer memory (0 = default 0.999)")
		gossipPort  = flag.Int("gossip-port", 0, "UDP port for gossip membership on the -addr host (0 = no cluster fabric, static ring)")
		join        = flag.String("join", "", "comma-separated gossip addresses of existing cluster members to join through (requires -gossip-port)")
		leaveWait   = flag.Duration("leave-timeout", 30*time.Second, "how long a SIGTERM shutdown may spend draining keys to the remaining members")
	)
	flag.Parse()

	policy, err := cli.ParsePolicy(*policyName, core.LiveOptions())
	if err != nil {
		return err
	}
	var wrapConn func(net.Conn) net.Conn
	if *faultSpec != "" {
		spec, serr := fault.ParseSpec(*faultSpec)
		if serr != nil {
			return serr
		}
		injector := fault.NewInjector(*faultSeed)
		spec.Apply(injector)
		wrapConn = injector.Conn
	}
	var cost kv.CostModel
	if *baseCost > 0 {
		base := *baseCost
		cost = func(_ wire.OpType, _, valueLen int) time.Duration {
			return base + base*time.Duration(valueLen)/1024
		}
	}
	syncPolicy, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		return err
	}
	var cluster *kv.ClusterConfig
	if *gossipPort > 0 {
		host, _, herr := net.SplitHostPort(*addr)
		if herr != nil {
			return fmt.Errorf("-gossip-port needs a host:port -addr to bind on: %w", herr)
		}
		cluster = &kv.ClusterConfig{
			GossipBind: net.JoinHostPort(host, strconv.Itoa(*gossipPort)),
			Seeds:      splitSeeds(*join),
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}
	} else if *join != "" {
		return fmt.Errorf("-join requires -gossip-port to enable the cluster fabric")
	}
	srv, err := kv.NewServer(kv.ServerConfig{
		ID:             sched.ServerID(*id),
		Addr:           *addr,
		Policy:         policy.Factory,
		Workers:        *workers,
		Cost:           cost,
		SpeedFactor:    *speed,
		WALDir:         *walDir,
		WALSync:        syncPolicy,
		WALSegmentSize: *walSegSize,
		SweepInterval:  *sweep,
		WrapConn:       wrapConn,
		Replication:    *replication,
		PoolSplit:      *poolSplit,
		SizeClass: sizeclass.Config{
			Quantile: *sizeQuant,
			Override: *sizeOverr,
			Decay:    *sizeDecay,
		},
		Cluster: cluster,
	})
	if err != nil {
		return err
	}
	fmt.Printf("kvserver %d listening on %s (policy=%s workers=%d speed=%.2f)\n",
		*id, srv.Addr(), policy.Name, *workers, *speed)
	if *poolSplit > 0 {
		fmt.Printf("kvserver %d size-class pools enabled (split=%.2f threshold=%s)\n",
			*id, *poolSplit, thresholdDesc(*sizeOverr, *sizeQuant))
	}
	if cluster != nil {
		if *join == "" {
			fmt.Printf("kvserver %d gossip on %s (bootstrap: no seeds)\n", *id, srv.GossipAddr())
		} else {
			fmt.Printf("kvserver %d gossip on %s joining via %s\n", *id, srv.GossipAddr(), *join)
		}
	}
	if rep := srv.WALRecovery(); rep != nil {
		fmt.Printf("kvserver %d wal recovery: %s\n", *id, rep)
		fmt.Printf("kvserver %d wal on %s (sync=%s segment=%d)\n", *id, *walDir, syncPolicy, *walSegSize)
	}
	if *faultSpec != "" {
		fmt.Printf("kvserver %d injecting fault %q on every connection\n", *id, *faultSpec)
	}

	var metricsSrv *http.Server
	if *metrics != "" {
		handler := kv.NewMetricsHandlerWith(srv, kv.MetricsHandlerConfig{EnablePprof: *pprofOn})
		metricsSrv = &http.Server{Addr: *metrics, Handler: handler}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "kvserver: metrics listener:", err)
			}
		}()
		fmt.Printf("kvserver %d metrics on http://%s/metrics\n", *id, *metrics)
		if *pprofOn {
			fmt.Printf("kvserver %d pprof on http://%s/debug/pprof/\n", *id, *metrics)
		}
	} else if *pprofOn {
		return fmt.Errorf("-pprof requires -metrics to name a listen address")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("kvserver %d shutting down after %d ops\n", *id, srv.Served())
	if metricsSrv != nil {
		_ = metricsSrv.Close()
	}
	if cluster != nil {
		// Graceful exit: drain owned keys to the surviving members and
		// gossip the departure, so peers rebalance without a suspicion
		// round. Errors are reported but never block shutdown.
		if lerr := srv.Leave(*leaveWait); lerr != nil {
			fmt.Fprintln(os.Stderr, "kvserver: leave:", lerr)
		}
	}
	return srv.Close()
}

// splitSeeds parses the -join flag: comma-separated, blanks dropped.
func splitSeeds(s string) []string {
	var seeds []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			seeds = append(seeds, part)
		}
	}
	return seeds
}

// thresholdDesc renders the effective small/large boundary for the
// startup banner: a fixed byte override, or the quantile being learned.
func thresholdDesc(override int64, quantile float64) string {
	if override > 0 {
		return fmt.Sprintf("%dB fixed", override)
	}
	if quantile == 0 {
		quantile = 0.9
	}
	return fmt.Sprintf("p%.0f learned", quantile*100)
}
