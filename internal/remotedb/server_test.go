package remotedb

import (
	"sync"
	"testing"
)

func startTestServer(t *testing.T) (addr string, e *Engine, cleanup func()) {
	t.Helper()
	e = newTestEngine(t)
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, e, func() { srv.Close() }
}

// TestPoolConcurrentClients: independent pools, one connection each, run
// joins against one server at the same time without crosstalk.
func TestPoolConcurrentClients(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := DialPool(addr, PoolOptions{Costs: DefaultCosts()})
			if err != nil {
				errs <- err
				return
			}
			defer p.Close()
			for j := 0; j < 20; j++ {
				res, err := p.Exec("SELECT e.name FROM emp e, dept d WHERE e.dept = d.id")
				if err != nil {
					errs <- err
					return
				}
				if res.Rel.Len() != 4 {
					t.Errorf("join returned %d rows, want 4", res.Rel.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPoolClosed(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	p, err := DialPool(addr, PoolOptions{Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec("SELECT * FROM dept"); err == nil {
		t.Error("exec on closed pool should error")
	}
	if _, err := p.Tables(); err == nil {
		t.Error("catalog request on closed pool should error")
	}
	if err := p.Close(); err != nil {
		t.Error("double close should be fine")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	p := dialTestPool(t, addr, PoolOptions{})
	cleanup()
	if _, err := p.Exec("SELECT * FROM dept"); err == nil {
		t.Error("exec against closed server should error")
	}
}
