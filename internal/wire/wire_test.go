package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		f    Frame
	}{
		{name: "empty payload", f: Frame{Type: 1}},
		{name: "small payload", f: Frame{Type: 42, Payload: []byte("hello")}},
		{name: "binary payload", f: Frame{Type: 0xFFFF, Payload: []byte{0, 1, 2, 255}}},
		{name: "large payload", f: Frame{Type: 7, Payload: bytes.Repeat([]byte{0xAB}, 1<<20)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, tt.f); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			got, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			if got.Type != tt.f.Type {
				t.Errorf("Type = %d, want %d", got.Type, tt.f.Type)
			}
			if !bytes.Equal(got.Payload, tt.f.Payload) {
				t.Errorf("payload mismatch: got %d bytes, want %d", len(got.Payload), len(tt.f.Payload))
			}
		})
	}
}

func TestFrameSequence(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 100; i++ {
		f := Frame{Type: uint16(i), Payload: bytes.Repeat([]byte{byte(i)}, i)}
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if f.Type != uint16(i) || len(f.Payload) != i {
			t.Fatalf("frame %d: got type=%d len=%d", i, f.Type, len(f.Payload))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected io.EOF after last frame, got %v", err)
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	buf := []byte{0xDE, 0xAD, 0, 1, 0, 0, 0, 0}
	_, err := ReadFrame(bytes.NewReader(buf))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("expected ErrBadMagic, got %v", err)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xD1, 0x7A, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	_, err := ReadFrame(&buf)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	f := Frame{Type: 1, Payload: make([]byte, MaxPayload+1)}
	if err := WriteFrame(io.Discard, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: 1, Payload: []byte("full payload")}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error on truncated payload")
	}
}

func TestEncoderDecoderAllFields(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Nanosecond)
	e := NewEncoder(256)
	e.Uint8(200)
	e.Bool(true)
	e.Bool(false)
	e.Uint16(65000)
	e.Uint32(4000000000)
	e.Uint64(math.MaxUint64)
	e.Int32(-12345)
	e.Int64(math.MinInt64 + 1)
	e.Float64(3.14159)
	e.Duration(90 * time.Minute)
	e.Time(now)
	e.Time(time.Time{})
	e.String("drivolution")
	e.String("")
	e.Bytes32([]byte{9, 8, 7})
	e.StringSlice([]string{"a", "bb", ""})

	d := NewDecoder(e.Bytes())
	if got := d.Uint8(); got != 200 {
		t.Errorf("Uint8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := d.Uint16(); got != 65000 {
		t.Errorf("Uint16 = %d", got)
	}
	if got := d.Uint32(); got != 4000000000 {
		t.Errorf("Uint32 = %d", got)
	}
	if got := d.Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := d.Int32(); got != -12345 {
		t.Errorf("Int32 = %d", got)
	}
	if got := d.Int64(); got != math.MinInt64+1 {
		t.Errorf("Int64 = %d", got)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("Float64 = %v", got)
	}
	if got := d.Duration(); got != 90*time.Minute {
		t.Errorf("Duration = %v", got)
	}
	if got := d.Time(); !got.Equal(now) {
		t.Errorf("Time = %v, want %v", got, now)
	}
	if got := d.Time(); !got.IsZero() {
		t.Errorf("zero Time = %v, want zero", got)
	}
	if got := d.String(); got != "drivolution" {
		t.Errorf("String = %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := d.Bytes32(); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Errorf("Bytes32 = %v", got)
	}
	if got := d.StringSlice(); !reflect.DeepEqual(got, []string{"a", "bb", ""}) {
		t.Errorf("StringSlice = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decoder error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1})
	_ = d.Uint32() // short: 1 byte available, 4 needed
	if d.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads return zero values without panicking.
	if got := d.String(); got != "" {
		t.Errorf("String after error = %q", got)
	}
	if got := d.Uint64(); got != 0 {
		t.Errorf("Uint64 after error = %d", got)
	}
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Errorf("Err = %v, want ErrShortBuffer", d.Err())
	}
}

// TestDecoderBytes32View: the view aliases the payload without a copy,
// its capacity ends at the field so an append cannot overwrite the next
// field, and a length past the buffer is a sticky short-buffer error.
func TestDecoderBytes32View(t *testing.T) {
	e := NewEncoder(32)
	e.Bytes32([]byte("chunk"))
	e.Uint32(7)
	payload := e.Bytes()
	d := NewDecoder(payload)
	v := d.Bytes32View()
	if string(v) != "chunk" || &v[0] != &payload[4] {
		t.Fatalf("view = %q, want an alias of the payload", v)
	}
	if cap(v) != len(v) {
		t.Fatalf("cap = %d, want %d", cap(v), len(v))
	}
	_ = append(v, 'X')
	if got := d.Uint32(); got != 7 || d.Err() != nil {
		t.Fatalf("next field = %d (%v), want 7: append overwrote it", got, d.Err())
	}
	short := NewDecoder([]byte{0, 0, 0, 9, 'a'})
	if v := short.Bytes32View(); v != nil || !errors.Is(short.Err(), ErrShortBuffer) {
		t.Fatalf("short buffer: view %q, err %v", v, short.Err())
	}
}

func TestDecoderMaliciousStringSliceCount(t *testing.T) {
	e := NewEncoder(8)
	e.Uint32(0xFFFFFFFF) // absurd element count with no data behind it
	d := NewDecoder(e.Bytes())
	if got := d.StringSlice(); got != nil {
		t.Fatalf("StringSlice = %v, want nil", got)
	}
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Fatalf("Err = %v, want ErrShortBuffer", d.Err())
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	prop := func(s string, b []byte, v uint64) bool {
		e := NewEncoder(64)
		e.String(s)
		e.Bytes32(b)
		e.Uint64(v)
		d := NewDecoder(e.Bytes())
		gs := d.String()
		gb := d.Bytes32()
		gv := d.Uint64()
		if d.Err() != nil {
			return false
		}
		return gs == s && bytes.Equal(gb, b) && gv == v && d.Remaining() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	prop := func(typ uint16, payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{Type: typ, Payload: payload}); err != nil {
			return false
		}
		f, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return f.Type == typ && bytes.Equal(f.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConnSendRecv(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		c := NewConn(nc)
		defer c.Close()
		f, err := c.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- c.Send(f.Type+1, append([]byte("echo:"), f.Payload...))
	}()

	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(10, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	f, err := c.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != 11 || string(f.Payload) != "echo:ping" {
		t.Fatalf("got type=%d payload=%q", f.Type, f.Payload)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestConnRecvTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		time.Sleep(500 * time.Millisecond) // never send
	}()
	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.RecvTimeout(50 * time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Fatalf("timeout took %v, expected ~50ms", elapsed)
	}
}

func TestConnConcurrentSends(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const n = 64
	recvDone := make(chan int, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			recvDone <- -1
			return
		}
		c := NewConn(nc)
		defer c.Close()
		count := 0
		for count < n {
			f, err := c.Recv()
			if err != nil {
				recvDone <- -1
				return
			}
			if len(f.Payload) != 100 {
				recvDone <- -1
				return
			}
			count++
		}
		recvDone <- count
	}()

	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			errc <- c.Send(uint16(i), bytes.Repeat([]byte{byte(i)}, 100))
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := <-recvDone; got != n {
		t.Fatalf("server received %d frames, want %d", got, n)
	}
}

func TestEncoderPoolReuse(t *testing.T) {
	e := GetEncoder(64)
	e.String("hello")
	if len(e.Bytes()) == 0 {
		t.Fatal("encoder did not accumulate")
	}
	PutEncoder(e)
	e2 := GetEncoder(64)
	if len(e2.Bytes()) != 0 {
		t.Fatal("pooled encoder returned non-empty")
	}
	e2.Uint32(42)
	if len(e2.Bytes()) != 4 {
		t.Fatalf("payload = %d bytes", len(e2.Bytes()))
	}
	PutEncoder(e2)

	// Oversized buffers are dropped rather than pinned in the pool.
	big := GetEncoder(2 << 20)
	PutEncoder(big)
	small := GetEncoder(16)
	if cap(small.buf) > 1<<20 && &small.buf[:1][0] == &big.buf[:1][0] {
		t.Fatal("oversized buffer was retained by the pool")
	}
}

func TestConnSendWriteTimeout(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	conn := NewConn(c1)
	defer conn.Close()
	conn.SetWriteTimeout(50 * time.Millisecond)
	// c2 never reads and net.Pipe has no buffering: the flush can only
	// end by deadline.
	err := conn.Send(1, make([]byte, 64<<10))
	if err == nil {
		t.Fatal("Send to a never-reading peer returned nil")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
}
