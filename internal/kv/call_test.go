package kv

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wire"
)

// connKiller records a server's accepted connections so a test can tear
// one down mid-flight.
type connKiller struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (k *connKiller) wrap(c net.Conn) net.Conn {
	k.mu.Lock()
	k.conns = append(k.conns, c)
	k.mu.Unlock()
	return c
}

// killLatest closes the most recently accepted connection.
func (k *connKiller) killLatest() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if n := len(k.conns); n > 0 {
		_ = k.conns[n-1].Close()
	}
}

// TestMGetPooledCallStress races pooled multiget calls against random
// context cancellation and a connection killed mid-flight, and checks
// that recycling a call never leaks one request's results into another:
// every returned value belongs to its own key, a degraded multiget
// reports each key exactly once (value or error) with a cause of the
// documented kinds, and the selector's in-flight counts drain to zero.
func TestMGetPooledCallStress(t *testing.T) {
	const nServers, nKeys, workers, rounds = 3, 64, 8, 60
	cost := func(wire.OpType, int, int) time.Duration { return 50 * time.Microsecond }
	killer := &connKiller{}
	addrs := make(map[sched.ServerID]string, nServers)
	for i := range nServers {
		cfg := ServerConfig{ID: sched.ServerID(i), Addr: "127.0.0.1:0", Cost: cost}
		if i == 0 {
			cfg.WrapConn = killer.wrap
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatalf("NewServer %d: %v", i, err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs[srv.ID()] = srv.Addr()
	}
	client, err := NewClient(ClientConfig{
		Servers:          addrs,
		Adaptive:         true,
		Replicas:         2,
		ReadFrom:         FastestRead,
		ReadRetries:      2,
		RetryBackoff:     200 * time.Microsecond,
		ReconnectBackoff: time.Millisecond,
		Seed:             7,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })

	keys := make([]string, nKeys)
	value := func(k string) string { return "value-of-" + k }
	ctx := context.Background()
	for i := range keys {
		keys[i] = fmt.Sprintf("stress-%03d", i)
		if err := client.Put(ctx, keys[i], []byte(value(keys[i]))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}

	stop := make(chan struct{})
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
				killer.killLatest()
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			for range rounds {
				want := make([]string, 1+rng.IntN(24))
				for i, j := range rng.Perm(nKeys)[:len(want)] {
					want[i] = keys[j]
				}
				rctx, cancel := context.WithCancel(ctx)
				if rng.IntN(3) == 0 {
					time.AfterFunc(time.Duration(rng.IntN(400))*time.Microsecond, cancel)
				}
				res, err := client.MGet(rctx, want)
				cancel()
				if err := checkMGet(want, res, err, value); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-killed
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := client.Metrics()
	t.Logf("%d multigets: %d retries, %d partial", m.Requests, m.Retries, m.Partials)
	if m.Retries+m.Partials == 0 {
		t.Error("no multiget was disturbed: the kills and cancellations never raced a call")
	}
	for id := range addrs {
		if n := client.sel.Outstanding(id); n != 0 {
			t.Errorf("server %d: %d reads still counted in flight after every multiget returned", id, n)
		}
	}
}

// checkMGet verifies one multiget's result against the PartialError
// contract: values match their keys, and on a degraded result every
// requested key is either returned or failed — never both, never
// neither — for a transport or context cause.
func checkMGet(want []string, res map[string][]byte, err error, value func(string) string) error {
	for k, v := range res {
		if string(v) != value(k) {
			return fmt.Errorf("key %q returned %q: a value of another key", k, v)
		}
	}
	var pe *PartialError
	if err != nil && !errors.As(err, &pe) {
		return fmt.Errorf("multiget error %v is not a *PartialError", err)
	}
	for _, k := range want {
		_, got := res[k]
		var kerr error
		if pe != nil {
			kerr = pe.Errs[k]
		}
		switch {
		case got && kerr != nil:
			return fmt.Errorf("key %q both returned and failed (%v)", k, kerr)
		case !got && kerr == nil:
			return fmt.Errorf("key %q neither returned nor failed (err %v)", k, err)
		case kerr != nil && !errors.Is(kerr, ErrUnavailable) && !errors.Is(kerr, context.Canceled):
			return fmt.Errorf("key %q failed with unexpected cause %v", k, kerr)
		}
	}
	if pe != nil {
		for k := range pe.Errs {
			if !slices.Contains(want, k) {
				return fmt.Errorf("error reported for unrequested key %q", k)
			}
		}
	}
	if len(res) > len(want) {
		return fmt.Errorf("%d keys returned for %d requested", len(res), len(want))
	}
	return nil
}
