package remotedb

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolBrokenConnFailsFast: when the server dies under a pool without
// Redial, requests fail promptly with a transient error instead of hanging
// on, or decoding from, the dead socket.
func TestPoolBrokenConnFailsFast(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	p := dialTestPool(t, addr, PoolOptions{})
	if _, err := p.Exec("SELECT * FROM dept"); err != nil {
		t.Fatal(err)
	}
	cleanup() // kill the server mid-session

	if _, err := p.Exec("SELECT * FROM dept"); err == nil || !IsTransient(err) {
		t.Fatalf("exec against dead server: got %v, want a transient failure", err)
	}
	start := time.Now()
	if _, err := p.Exec("SELECT * FROM dept"); err == nil || !IsTransient(err) {
		t.Fatalf("second exec against dead server: got %v, want a transient failure", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("failure against a dead server took %v, want fast", d)
	}
}

// connGen reads the dial generation of pool connection i: it moves only when
// the connection is re-dialed.
func connGen(p *PoolClient, i int) uint64 {
	c := p.conns[i]
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

func TestServerIdleTimeoutDropsDeadPeers(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{IdleTimeout: 50 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A peer that completes the handshake and then goes silent is dropped.
	conn, _, dec := rawHello(t, addr)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var f wireFrame
	if err := dec.Decode(&f); !errors.Is(err, io.EOF) {
		t.Fatalf("silent peer after hello: read %v, want EOF from the server's close", err)
	}
	// So is one that connects and never says hello.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("silent peer before hello: read %v, want EOF from the server's close", err)
	}

	// An active pool inside the idle window keeps its connection.
	p := dialTestPool(t, addr, PoolOptions{})
	for i := 0; i < 5; i++ {
		if _, err := p.Exec("SELECT * FROM dept"); err != nil {
			t.Fatalf("active connection dropped: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g := connGen(p, 0); g != 1 {
		t.Fatalf("active connection was re-dialed (generation %d)", g)
	}
}

// TestServerCloseUnderLoad drives concurrent clients and closes the server
// mid-flight: Close must return promptly, and every client must observe a
// connection error rather than a hang.
func TestServerCloseUnderLoad(t *testing.T) {
	e := newTestEngine(t)
	srvRef := NewServer(e)
	addr, err := srvRef.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := DialPool(addr, PoolOptions{Costs: DefaultCosts()})
			if err != nil {
				return
			}
			defer p.Close()
			for !stopped.Load() {
				if _, err := p.Exec("SELECT e.name FROM emp e, dept d WHERE e.dept = d.id"); err != nil {
					return // connection error, as expected after Close
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond) // let the load build

	closed := make(chan error, 1)
	go func() { closed <- srvRef.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close under load: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung with in-flight requests")
	}
	stopped.Store(true)

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("clients hung after server close")
	}
	// New connections must be refused.
	if p, err := DialPool(addr, PoolOptions{}); err == nil {
		p.Close()
		t.Fatal("dial after close should fail")
	}
}

// TestServerShutdownDrains verifies the graceful path: an in-flight request
// gets its response before the connection is released.
func TestServerShutdownDrains(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := dialTestPool(t, addr, PoolOptions{})

	results := make(chan error, 1)
	go func() {
		_, err := p.Exec("SELECT e.name FROM emp e, dept d WHERE e.dept = d.id")
		results <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-results:
		// The in-flight request either completed (drained before the read
		// deadline landed) or failed with a connection error; it must not
		// have hung.
		_ = err
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight request hung across Shutdown")
	}
	// The drained server accepts no further work.
	if _, err := p.Exec("SELECT * FROM dept"); err == nil {
		t.Fatal("exec after shutdown should fail")
	}
}
