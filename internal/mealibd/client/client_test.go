package client

import (
	"bytes"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/mealibd"
	"mealib/internal/mealibrt"
	"mealib/internal/phys"
)

// countingConn counts the Read and Write calls made on a connection.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener hands the server counting connections, in accept order.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

func (l *countingListener) conn(i int) *countingConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[i]
}

// TestFrameIsOneWrite pins the syscall shape of the wire: every frame, a
// request from the client or a reply from the server, is one Write on the
// connection, and k frames that arrive in one client write cost the server at
// most k+1 Reads, the last of them the one that waits for more.
//
// Gate (check.sh): the mealibd wire.
func TestFrameIsOneWrite(t *testing.T) {
	rt, err := mealibrt.New(mealibrt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mealibd.New(mealibd.Config{Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	addr := filepath.Join(t.TempDir(), "mealibd.sock")
	inner, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()

	raw, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: raw}
	cl, err := open(cc, Config{Tenant: "counted"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	requests := 1 // hello
	must := func(err error) {
		t.Helper()
		requests++
		if err != nil {
			t.Fatal(err)
		}
	}
	const n = 64
	x, err := cl.Alloc(4 * n)
	must(err)
	y, err := cl.Alloc(4 * n)
	must(err)
	must(x.StoreFloat32s(0, make([]float32, n)))
	must(y.StoreFloat32s(0, make([]float32, n)))
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: n, Alpha: 2, X: phys.Addr(x.PA()), Y: phys.Addr(y.PA()), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p, err := cl.Plan(d)
	must(err)
	_, err = p.Execute()
	must(err)
	tk, err := p.Submit()
	must(err)
	_, err = tk.Wait()
	must(err)
	_, err = y.LoadFloat32s(0, n)
	must(err)
	_, err = cl.Stats()
	must(err)
	must(p.Destroy())
	must(x.Free())
	must(y.Free())
	if got := cc.writes.Load(); got != int64(requests) {
		t.Errorf("the client made %d Writes for %d request frames, want one each", got, requests)
	}
	if got := ln.conn(0).writes.Load(); got != int64(requests) {
		t.Errorf("the server made %d Writes for %d reply frames, want one each", got, requests)
	}

	// k frames in one write.
	burst, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer burst.Close()
	hello := &mealibd.Enc{}
	hello.U8(mealibd.MsgHello)
	hello.Str("burst")
	hello.U64(0)
	hello.U32(0)
	hello.U32(0)
	if err := mealibd.WriteFrame(burst, hello.Payload()); err != nil {
		t.Fatal(err)
	}
	if _, err := mealibd.ReadFrame(burst); err != nil {
		t.Fatal(err)
	}
	const k = 8
	var frames bytes.Buffer
	for i := 0; i < k; i++ {
		if err := mealibd.WriteFrame(&frames, []byte{mealibd.MsgStats}); err != nil {
			t.Fatal(err)
		}
	}
	sc := ln.conn(1)
	before := sc.reads.Load()
	if _, err := burst.Write(frames.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		reply, err := mealibd.ReadFrame(burst)
		if err != nil || reply[0] != mealibd.ReplyOK {
			t.Fatalf("reply %d: % x, %v", i, reply, err)
		}
	}
	if got := sc.reads.Load() - before; got > k+1 {
		t.Errorf("%d frames in one write cost the server %d Reads, want at most %d", k, got, k+1)
	}
}

// muteServer listens on a unix socket, answers the first request (the
// client's hello) with ReplyOK, and hands the test its end of the
// connection, on which it says nothing unless the test writes.
func muteServer(t *testing.T) (addr string, peer <-chan net.Conn) {
	t.Helper()
	addr = filepath.Join(t.TempDir(), "mute.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	ch := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		if _, err := mealibd.ReadFrame(c); err == nil {
			_ = mealibd.WriteFrame(c, []byte{mealibd.ReplyOK})
		}
		ch <- c
	}()
	return addr, ch
}

// TestClientCloseUnblocksPendingRequest: Close must not wait behind a request
// whose reply never comes. The pending request returns an error, and so does
// every later one.
//
// Gate (check.sh): the mealibd wire.
func TestClientCloseUnblocksPendingRequest(t *testing.T) {
	addr, peer := muteServer(t)
	cl, err := Dial(Config{Network: "unix", Addr: addr, Tenant: "waits"})
	if err != nil {
		t.Fatal(err)
	}
	srv := <-peer
	defer srv.Close()
	pending := make(chan error, 1)
	go func() {
		_, err := cl.Stats()
		pending <- err
	}()
	// Once the server end has the request, Stats holds the client's lock in
	// its read of the reply.
	if _, err := mealibd.ReadFrame(srv); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- cl.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Errorf("Close has not returned after 2 s with a Stats request pending")
		_ = srv.Close() // let the pending read fail, so the test ends
		<-closed
	}
	if err := <-pending; err == nil {
		t.Errorf("the pending Stats returned no error after Close")
	}
	if _, err := cl.Stats(); err == nil {
		t.Errorf("a Stats after Close returned no error")
	}
}

// TestClientFailureSticks: a reply that cannot be read whole leaves the byte
// stream out of step. The client must return that error on every later call,
// not read the bytes that follow as the next request's reply.
//
// Gate (check.sh): the mealibd wire.
func TestClientFailureSticks(t *testing.T) {
	addr, peer := muteServer(t)
	cl, err := Dial(Config{Network: "unix", Addr: addr, Tenant: "torn"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := <-peer
	defer srv.Close()
	go func() {
		if _, err := mealibd.ReadFrame(srv); err != nil {
			return
		}
		// A header over the frame limit, then a well-formed Stats reply that
		// answers nothing; then one more such reply for every later request,
		// so a client that reads on is always a reply behind.
		_, _ = srv.Write([]byte{0xff, 0xff, 0xff, 0xff})
		e := &mealibd.Enc{}
		e.U8(mealibd.ReplyOK)
		e.Bytes([]byte("{}"))
		for mealibd.WriteFrame(srv, e.Payload()) == nil {
			if _, err := mealibd.ReadFrame(srv); err != nil {
				return
			}
		}
	}()
	_, first := cl.Stats()
	if first == nil {
		t.Fatal("a reply header over the frame limit was accepted")
	}
	for i := 0; i < 2; i++ {
		if js, err := cl.Stats(); !errors.Is(err, first) {
			t.Errorf("call %d after the torn reply returned %q, %v; want the first error, %v", i+1, js, err, first)
		}
	}
}

// TestLoadReplyLengthIsChecked: a load reply that does not hold count
// elements is an error, not a short or long result. The fake server answers
// every load with 12 bytes.
func TestLoadReplyLengthIsChecked(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	go func() {
		for i := 0; ; i++ {
			if _, err := mealibd.ReadFrame(srv); err != nil {
				return
			}
			e := &mealibd.Enc{}
			e.U8(mealibd.ReplyOK)
			if i > 0 { // the hello's reply carries nothing
				e.Bytes(make([]byte, 12))
			}
			if mealibd.WriteFrame(srv, e.Payload()) != nil {
				return
			}
		}
	}()
	cl, err := open(cli, Config{Tenant: "short"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b := &Buffer{cl: cl, id: 1}
	if got, err := b.LoadFloat32s(0, 4); err == nil {
		t.Errorf("a 12-byte reply to a load of 4 float32s returned %v", got)
	}
	if got, err := Load[int32](b, 0, 2); err == nil {
		t.Errorf("a 12-byte reply to a load of 2 int32s returned %v", got)
	}
	if got, err := Load[complex64](b, 0, 1); err == nil {
		t.Errorf("a 12-byte reply to a load of 1 complex64 returned %v", got)
	}
	if got, err := b.LoadFloat32s(0, 3); err != nil || len(got) != 3 {
		t.Errorf("a 12-byte reply to a load of 3 float32s = %v, %v", got, err)
	}
}
