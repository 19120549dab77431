package server

import (
	"bufio"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"pmwcas/internal/wire"
)

// TestConnectionChurnNoLeak hammers the server with connections that die
// in every ungraceful way — dialed and dropped, killed mid-frame, closed
// after real traffic — and asserts teardown returns every resource: the
// epoch-guard gauge comes back to its baseline (a stuck guard would pin
// the epoch clock and block all reclamation forever), and the server
// still serves a full complement of connections afterwards.
func TestConnectionChurnNoLeak(t *testing.T) {
	const maxConns = 4
	srv, store, addr, stop := startServer(t, IndexSkipList, maxConns)
	defer stop()

	baseline := store.Stats().Epoch.Guards
	if baseline == 0 {
		t.Fatal("guard gauge reads zero with a live backend pool")
	}

	for i := 0; i < 60; i++ {
		switch i % 3 {
		case 0: // connect, never speak, drop
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial %d: %v", i, err)
			}
			c.Close()
		case 1: // die mid-frame: a partial header, then the wire goes dead
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial %d: %v", i, err)
			}
			if _, err := c.Write([]byte{0x01, 0x02}); err == nil {
				c.Close()
			}
		case 2: // real traffic, then abrupt close without a drain
			cl, err := wire.Dial(addr)
			if err != nil {
				t.Fatalf("wire dial %d: %v", i, err)
			}
			if err := cl.Put([]byte("churn"), []byte("v")); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			cl.Close()
		}
	}

	// Connection goroutines unwind asynchronously after a client drop;
	// poll until the gauge settles back to the pool's baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := store.Stats().Epoch.Guards; g == baseline {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("epoch guards leaked under churn: %d, baseline %d", g, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The gauge is part of the observable STATS surface. Dying
	// connections from the churn are reaped asynchronously, so a BUSY
	// rejection here is legitimate too: retry until the cap frees up.
	var stats string
	retryUntil := time.Now().Add(5 * time.Second)
	for {
		cl, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		stats, err = cl.Stats()
		cl.Close()
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), "BUSY") || time.Now().After(retryUntil) {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(stats, "epoch_guards") {
		t.Fatalf("STATS does not report the guard gauge:\n%s", stats)
	}

	// Full house still works: maxConns concurrent clients, all served.
	// Dying connections from the churn (and the stats client above) are
	// reaped asynchronously, so a BUSY rejection right after the churn is
	// legitimate — retry each seat until the cap frees up.
	clients := make([]*wire.Client, maxConns)
	retryUntil = time.Now().Add(5 * time.Second)
	for i := range clients {
		key := []byte{byte('a' + i)}
		for {
			c, err := wire.Dial(addr)
			if err != nil {
				t.Fatalf("post-churn dial %d: %v", i, err)
			}
			if err := c.Put(key, []byte("post")); err != nil {
				c.Close()
				if strings.Contains(err.Error(), "BUSY") && time.Now().Before(retryUntil) {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				t.Fatalf("post-churn put %d: %v", i, err)
			}
			clients[i] = c
			break
		}
	}
	for i, c := range clients {
		key := []byte{byte('a' + i)}
		got, err := c.Get(key)
		if err != nil || string(got) != "post" {
			t.Fatalf("post-churn get %d = %q, %v", i, got, err)
		}
	}
	for _, c := range clients {
		c.Close()
	}
	if srv.Served() == 0 {
		t.Fatal("server served nothing")
	}
}

// TestShutdownWaitsForRejects pins the rejection-goroutine lifecycle:
// every BUSY rejection runs a write-then-drain goroutine with deadlines
// up to a second out, and Shutdown must wait for those exactly like
// serving connections — an untracked rejection would outlive Shutdown,
// still holding a connection after the caller believes the server quiet.
// The regression this pins: reject goroutines were spawned outside s.wg
// and s.conns, so Shutdown neither waited for them nor cut their drains
// short.
func TestShutdownWaitsForRejects(t *testing.T) {
	srv, _, addr, _ := startServer(t, IndexSkipList, 1)

	// Occupy the single backend so every further dial is rejected.
	holder := dial(t, addr)
	if err := holder.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Reject storm: raw connections that stay open on the client end, so
	// each rejection goroutine's courtesy drain (it waits for the client
	// to close) can only end by deadline — or by Shutdown cutting it off.
	const storm = 8
	conns := make([]net.Conn, storm)
	ping := wire.AppendRequest(nil, &wire.Request{Op: wire.OpPing})
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("storm dial %d: %v", i, err)
		}
		defer c.Close()
		if err := wire.WriteFrame(c, ping); err != nil {
			t.Fatalf("storm write %d: %v", i, err)
		}
		conns[i] = c
	}
	// Reading the BUSY frame proves this connection's rejection goroutine
	// is up and into its drain.
	for i, c := range conns {
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		body, err := wire.ReadFrame(bufio.NewReader(c), nil)
		if err != nil {
			t.Fatalf("storm read %d: %v", i, err)
		}
		resp, err := wire.DecodeResponse(body)
		if err != nil {
			t.Fatalf("storm decode %d: %v", i, err)
		}
		if resp.Status != wire.StatusBusy {
			t.Fatalf("storm conn %d got status %v, want BUSY", i, resp.Status)
		}
	}
	if got := srv.Rejected(); got < storm {
		t.Fatalf("Rejected() = %d, want >= %d", got, storm)
	}

	holder.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Shutdown has returned, so every rejection goroutine must be gone and
	// must have closed its connection: client-side writes have to start
	// failing immediately, not after the drains' leftover deadlines.
	returned := time.Now()
	for i, c := range conns {
		var err error
		for err == nil && time.Since(returned) < 2*time.Second {
			if _, err = c.Write([]byte("x")); err == nil {
				time.Sleep(2 * time.Millisecond)
			}
		}
		if err == nil {
			t.Fatalf("storm conn %d still open 2s after Shutdown returned", i)
		}
		if late := time.Since(returned); late > 400*time.Millisecond {
			t.Fatalf("storm conn %d closed %v after Shutdown returned — its rejection outlived the drain", i, late)
		}
	}
}
