package remotedb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// rawHello opens a connection and completes the hello handshake by hand, for
// tests that script the client side of the protocol.
func rawHello(t *testing.T, addr string) (net.Conn, *gob.Encoder, *gob.Decoder) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	if err := enc.Encode(&wireRequest{Op: "hello", Proto: protoV3}); err != nil {
		t.Fatal(err)
	}
	var resp wireResponse
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if err := helloReply(&resp); err != nil {
		t.Fatal(err)
	}
	return conn, enc, dec
}

// TestServerRefusesPreV3Peers: a first message that is not a hello offering
// protocol 3 is answered with a refusal the client side reads as a typed
// ErrProtocol, and then the connection is closed — nothing is executed and
// no frame follows.
func TestServerRefusesPreV3Peers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first wireRequest
	}{
		{"hello offering 2", wireRequest{Op: "hello", Proto: 2}},
		{"hello offering nothing", wireRequest{Op: "hello"}},
		{"exec without hello", wireRequest{Op: "exec", SQL: "INSERT INTO dept VALUES (40, 'qa')"}},
		{"select without hello", wireRequest{Op: "exec", SQL: "SELECT * FROM dept"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, e, cleanup := startTestServer(t)
			defer cleanup()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
			if err := enc.Encode(&tc.first); err != nil {
				t.Fatal(err)
			}
			var resp wireResponse
			if err := dec.Decode(&resp); err != nil {
				t.Fatalf("no refusal before the close: %v", err)
			}
			if err := helloReply(&resp); !errors.Is(err, ErrProtocol) {
				t.Fatalf("refusal reads as %v, want ErrProtocol", err)
			}
			var f wireFrame
			if err := dec.Decode(&f); !errors.Is(err, io.EOF) {
				t.Fatalf("after the refusal: read %v (%+v), want EOF", err, f)
			}
			if st, err := e.Stats("dept"); err != nil || st.Rows != 3 {
				t.Fatalf("refused request touched the engine: dept rows %d, %v", st.Rows, err)
			}
		})
	}
}

// fakeServer accepts connections, answers each hello with reply, and records
// every message that follows it on the same connection.
func fakeServer(t *testing.T, reply wireResponse) (addr string, after func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		extra int
		wg    sync.WaitGroup
	)
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(2 * time.Second))
				enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
				var hello wireRequest
				if dec.Decode(&hello) != nil || enc.Encode(reply) != nil {
					return
				}
				for {
					var f wireFrame
					if dec.Decode(&f) != nil {
						return
					}
					mu.Lock()
					extra++
					mu.Unlock()
				}
			}()
		}
	}()
	return ln.Addr().String(), func() int {
		mu.Lock()
		defer mu.Unlock()
		return extra
	}
}

// TestPoolRefusesPreV3Servers: a server that answers the hello with anything
// but protocol 3 — a v2-era server's 2, a v1 server's unknown-op error, a
// zero answer — fails the dial with a typed ErrProtocol, and the client sends
// it no request.
func TestPoolRefusesPreV3Servers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply wireResponse
	}{
		{"answers 2", wireResponse{Proto: 2}},
		{"answers unknown op", wireResponse{Err: `remotedb: unknown op "hello"`}},
		{"answers nothing", wireResponse{}},
		{"answers 4", wireResponse{Proto: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, after := fakeServer(t, tc.reply)
			p, err := DialPool(addr, PoolOptions{Redial: true})
			if err == nil {
				p.Close()
				t.Fatal("dial succeeded against a pre-v3 server")
			}
			var pe *ProtocolError
			if !errors.Is(err, ErrProtocol) || !errors.As(err, &pe) {
				t.Fatalf("dial error %v, want a *ProtocolError", err)
			}
			if n := after(); n != 0 {
				t.Fatalf("client sent %d messages after a refused hello", n)
			}
		})
	}
}

// pipeConn is an in-memory net.Conn for driving serveConn synchronously:
// reads drain a fixed input, then report EOF; writes are collected.
type pipeConn struct {
	in     *bytes.Reader
	mu     sync.Mutex
	out    bytes.Buffer
	closed bool
}

func (c *pipeConn) Read(b []byte) (int, error) { return c.in.Read(b) }
func (c *pipeConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(b)
}
func (c *pipeConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}
func (c *pipeConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *pipeConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *pipeConn) SetDeadline(time.Time) error      { return nil }
func (c *pipeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *pipeConn) SetWriteDeadline(time.Time) error { return nil }

// serveBytes runs one server connection over the given client bytes and
// reports whether the server closed it.
func serveBytes(e *Engine, data []byte) bool {
	s := NewServer(e)
	c := &pipeConn{in: bytes.NewReader(data)}
	s.conns[c] = true
	s.wg.Add(1)
	s.serveConn(c)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// encodeMessages gob-encodes a client byte stream: a hello, then frames, on
// one encoder as a real connection would.
func encodeMessages(t testing.TB, hello *wireRequest, frames ...*wireFrame) []byte {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if hello != nil {
		if err := enc.Encode(hello); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestServerDropsGarbageBeforeHello: bytes that are not a gob hello close
// the connection without a panic.
func TestServerDropsGarbageBeforeHello(t *testing.T) {
	e := newTestEngine(t)
	for _, data := range [][]byte{
		nil,
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		encodeMessages(t, nil, &wireFrame{ID: 1, Kind: frameReq, Req: &wireRequest{Op: "exec", SQL: "SELECT * FROM dept"}}),
	} {
		if !serveBytes(e, data) {
			t.Fatalf("connection left open after %q", data)
		}
	}
}

// helloFrameSeeds are well-formed client streams: a hello followed by every
// frame kind, so the fuzzers start from inputs that reach deep states.
func helloFrameSeeds(t testing.TB) [][]byte {
	hello := &wireRequest{Op: "hello", Proto: protoV3, FrameTuples: 2}
	var seeds [][]byte
	for _, f := range []*wireFrame{
		{ID: 1, Kind: frameReq, Req: &wireRequest{Op: "exec", SQL: "SELECT * FROM emp"}},
		{ID: 2, Kind: frameReq, Req: &wireRequest{Op: "tables"}},
		{ID: 1, Kind: frameCancel},
		{ID: 1, Kind: frameHeader, Name: "r", Attrs: []wireAttr{{Name: "x", Kind: 1}}, Resume: "tok"},
		{ID: 1, Kind: frameBatch, Batch: []byte{1, 1, 1, 84}},
		{ID: 1, Kind: frameEnd, Ops: 3, Err: "e", Code: wireCodeDeadline, Tables: []string{"t"}},
	} {
		seeds = append(seeds, encodeMessages(t, hello, f), encodeMessages(t, nil, f))
	}
	return append(seeds, encodeMessages(t, hello))
}

// FuzzReadFrame: arbitrary bytes through the frame envelope decoder never
// panic, and every failure is io.EOF or a typed ErrProtocol.
func FuzzReadFrame(f *testing.F) {
	for _, s := range helloFrameSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := gob.NewDecoder(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			fr, err := readFrame(dec)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrProtocol) {
					t.Fatalf("untyped frame error: %v", err)
				}
				return
			}
			if !validFrameKind(fr.Kind) || (fr.Kind == frameReq && fr.Req == nil) {
				t.Fatalf("invalid frame accepted: %+v", fr)
			}
		}
	})
}

// FuzzServeConn: arbitrary client bytes through a whole server connection —
// the first-message read, the handshake, and the framed request loop — never
// panic, and the server closes the connection once the input ends.
func FuzzServeConn(f *testing.F) {
	for _, s := range helloFrameSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := readHello(gob.NewDecoder(bytes.NewReader(data))); err != nil &&
			!errors.Is(err, io.EOF) && !errors.Is(err, ErrProtocol) {
			t.Fatalf("untyped handshake error: %v", err)
		}
		if !serveBytes(newTestEngine(t), data) {
			t.Fatal("connection left open after the input ended")
		}
	})
}
