package kernel

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// The iovec and pollfd wire helpers sit on the guest-visible syscall
// surface: decodeIovec consumes a raw Args word as the segment count and
// Call.Data as the vector, so every malformed shape a guest can produce
// must come back EINVAL — never a panic, never a silent partial decode.

func TestDecodeIovecMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		cnt  int
	}{
		{"negative count", []byte{1, 0, 0, 0, 'x'}, -1},
		{"count past data", []byte{1, 0, 0, 0}, 2},
		{"truncated prefix", []byte{1, 0, 0}, 1},
		{"empty data nonzero count", nil, 1},
		{"zero count with trailing bytes", []byte("overhang"), 0},
		{"sum short of payload", EncodeIovec(nil, []byte("ab"), []byte("cd"))[:12+3], 2},
		{"sum past payload", append(EncodeIovec(nil, []byte("ab")), 'x'), 1},
		{"overflowing length word", []byte{0xff, 0xff, 0xff, 0xff}, 1},
		{"huge count wraps multiply", []byte{1, 0, 0, 0}, math.MaxInt64/2 + 1},
		{"max count", nil, math.MaxInt64},
	} {
		if payload, errno := decodeIovec(tc.data, tc.cnt); errno != EINVAL {
			t.Errorf("%s: decodeIovec = (%q, %v), want EINVAL", tc.name, payload, errno)
		}
	}
}

func TestDecodeIovecZeroCount(t *testing.T) {
	// cnt=0 with no data is a legal empty vector, like writev(fd, iov, 0).
	payload, errno := decodeIovec(nil, 0)
	if errno != OK || len(payload) != 0 {
		t.Fatalf("empty vector: (%q, %v), want empty OK", payload, errno)
	}
}

func TestEncodeIovecRoundTrip(t *testing.T) {
	for _, segs := range [][][]byte{
		{},
		{[]byte("hello")},
		{[]byte("HTTP/1.1 200 OK\r\n\r\n"), []byte("body")},
		{nil, []byte("x"), nil},            // zero-length segments are legal
		{bytes.Repeat([]byte{0xAB}, 4096)}, // payload larger than prefixes
	} {
		wire := EncodeIovec(nil, segs...)
		var flat []byte
		for _, s := range segs {
			flat = append(flat, s...)
		}
		payload, errno := decodeIovec(wire, len(segs))
		if errno != OK || !bytes.Equal(payload, flat) {
			t.Errorf("round trip of %d segs: (%q, %v), want %q", len(segs), payload, errno, flat)
		}
	}
}

// FuzzDecodeIovec throws arbitrary wire bytes and counts at the decoder:
// it must either return a payload that is exactly the bytes after the
// prefixes, or EINVAL — reaching the check at the bottom unpanicked is the
// property.
func FuzzDecodeIovec(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add(EncodeIovec(nil, []byte("ab"), []byte("cde")), 2)
	f.Add([]byte{1, 0, 0, 0}, 2)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 1)
	f.Add([]byte{1, 0, 0, 0}, math.MaxInt64/2+1)
	f.Fuzz(func(t *testing.T, data []byte, cnt int) {
		payload, errno := decodeIovec(data, cnt)
		switch errno {
		case OK:
			if cnt < 0 || cnt > len(data)/iovLenSize {
				t.Fatalf("decoded with impossible count %d over %d bytes", cnt, len(data))
			}
			if len(payload) != len(data)-cnt*iovLenSize {
				t.Fatalf("payload %d bytes, want %d", len(payload), len(data)-cnt*iovLenSize)
			}
		case EINVAL:
			if payload != nil {
				t.Fatalf("EINVAL with a payload (%d bytes)", len(payload))
			}
		default:
			t.Fatalf("unexpected errno %v", errno)
		}
	})
}

func TestPollFDRoundTrip(t *testing.T) {
	entries := []struct {
		fd     int
		events uint16
	}{
		{0, PollIn},
		{3, PollIn | PollOut},
		{65535, 0},                // zero events is a legal (if useless) entry
		{1 << 20, math.MaxUint16}, // all event bits survive
	}
	b := make([]byte, len(entries)*PollFDSize)
	for i, e := range entries {
		EncodePollFD(b, i, e.fd, e.events)
	}
	for i, e := range entries {
		fd, events, revents := DecodePollFD(b, i)
		if fd != e.fd || events != e.events || revents != 0 {
			t.Errorf("entry %d: got (%d, %#x, %#x), want (%d, %#x, 0)", i, fd, events, revents, e.fd, e.events)
		}
	}
	// Encoding must zero revents even when the buffer is reused dirty —
	// the poll loop reuse contract.
	putRevents(b, 1, PollHup)
	EncodePollFD(b, 1, 9, PollIn)
	if _, _, revents := DecodePollFD(b, 1); revents != 0 {
		t.Errorf("reused entry keeps stale revents %#x", revents)
	}
	if got := DecodeRevents(b, 1); got != 0 {
		t.Errorf("DecodeRevents on fresh entry = %#x, want 0", got)
	}
}

// FuzzPollFDRoundTrip: any (fd, events) a guest can express in the wire
// format decodes back unchanged at every index of a multi-entry array.
func FuzzPollFDRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint16(PollIn), uint8(0))
	f.Add(uint32(3), uint16(PollIn|PollOut), uint8(2))
	f.Add(uint32(math.MaxUint32), uint16(math.MaxUint16), uint8(7))
	f.Fuzz(func(t *testing.T, fd uint32, events uint16, slot uint8) {
		i := int(slot % 8)
		b := make([]byte, 8*PollFDSize)
		EncodePollFD(b, i, int(fd), events)
		gfd, gev, grev := DecodePollFD(b, i)
		if gfd != int(fd) || gev != events || grev != 0 {
			t.Fatalf("entry %d: got (%d, %#x, %#x), want (%d, %#x, 0)", i, gfd, gev, grev, fd, events)
		}
		// Neighbouring entries stay zero: the encoder writes exactly
		// PollFDSize bytes.
		for j := 0; j < 8; j++ {
			if j == i {
				continue
			}
			if jfd, jev, jrev := DecodePollFD(b, j); jfd != 0 || jev != 0 || jrev != 0 {
				t.Fatalf("entry %d bled into entry %d: (%d, %#x, %#x)", i, j, jfd, jev, jrev)
			}
		}
	})
}

// Guest-chosen byte counts. The count word of read/recv/pread is the
// guest's, like the iovec count above: whatever it holds, the host neither
// panics nor sizes an allocation from it.

// countFDKinds are the descriptor kinds a count can be aimed at.
var countFDKinds = []string{"pipe-read-end", "pipe-write-end", "socket", "unconnected-socket", "listener", "file"}

// countFixture builds a kernel holding one descriptor of the given kind.
// Readable kinds have the bytes "hello" pending, so no read here blocks.
func countFixture(t testing.TB, kind string) (*Kernel, *Proc, uint64) {
	t.Helper()
	k := New()
	p := newTestProc(k)
	switch kind {
	case "pipe-read-end", "pipe-write-end":
		pr := k.Do(p, Call{Nr: SysPipe2})
		k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{pr.Val2}, Data: []byte("hello")})
		if kind == "pipe-read-end" {
			return k, p, pr.Val
		}
		return k, p, pr.Val2
	case "unconnected-socket":
		return k, p, k.Do(p, Call{Nr: SysSocket}).Val
	case "listener", "socket":
		lfd := k.Do(p, Call{Nr: SysSocket}).Val
		if r := k.Do(p, Call{Nr: SysListen, Args: [6]uint64{lfd, 80, 4}}); !r.Ok() {
			t.Fatalf("listen: %v", r.Err)
		}
		if kind == "listener" {
			return k, p, lfd
		}
		cc, errno := k.Connect(80)
		if errno != OK {
			t.Fatalf("connect: %v", errno)
		}
		cc.Write([]byte("hello"))
		return k, p, k.Do(p, Call{Nr: SysAccept, Args: [6]uint64{lfd}}).Val
	case "file":
		return k, p, mkFile(t, k, p, "/f", []byte("hello"))
	}
	t.Fatalf("unknown fd kind %q", kind)
	return nil, nil, 0
}

// countedRead issues nr with the raw count word and returns the result and
// the bytes the call allocated.
func countedRead(k *Kernel, p *Proc, nr Sysno, fd, raw uint64) (Ret, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := k.Do(p, Call{Nr: nr, Args: [6]uint64{fd, raw}})
	runtime.ReadMemStats(&after)
	return r, after.TotalAlloc - before.TotalAlloc
}

// allocSlack covers what a call allocates besides its payload (nothing, on
// the paths below) plus background noise from other goroutines.
const allocSlack = 64 << 10

func TestHugeCountsNeverPanic(t *testing.T) {
	for _, nr := range []Sysno{SysRead, SysRecv, SysPread} {
		for _, kind := range countFDKinds {
			for _, raw := range []uint64{^uint64(0), 1 << 63, 1 << 40} {
				k, p, fd := countFixture(t, kind)
				r, alloc := countedRead(k, p, nr, fd, raw)
				name := fmt.Sprintf("%v(%s, %#x)", nr, kind, raw)
				if alloc > uint64(len(r.Data))+allocSlack {
					t.Errorf("%s allocated %d bytes to deliver %d", name, alloc, len(r.Data))
				}
				want := EINVAL // a count no int holds; listeners; unconnected sockets
				switch {
				case nr == SysPread && kind != "file":
					want = ESPIPE
				case raw > math.MaxInt:
				case kind == "pipe-write-end":
					want = EBADF
				case kind == "pipe-read-end", kind == "socket", kind == "file":
					want = OK
				}
				if r.Err != want || (want == OK && string(r.Data) != "hello") {
					t.Errorf("%s = (%q, %v), want errno %v", name, r.Data, r.Err, want)
				}
				k.Interrupt()
			}
		}
	}
}

// FuzzReadCount: any count word, on any descriptor kind, through any of the
// three calls that take one — reaching the end unpanicked, having allocated
// no more than was delivered, is the property.
func FuzzReadCount(f *testing.F) {
	for _, raw := range []uint64{0, 3, 4096, 1 << 40, 1 << 63, ^uint64(0)} {
		for kind := range countFDKinds {
			f.Add(uint8(kind), uint8(kind), raw)
		}
	}
	f.Fuzz(func(t *testing.T, kind, call uint8, raw uint64) {
		nr := []Sysno{SysRead, SysRecv, SysPread}[int(call)%3]
		k, p, fd := countFixture(t, countFDKinds[int(kind)%len(countFDKinds)])
		defer k.Interrupt()
		r, alloc := countedRead(k, p, nr, fd, raw)
		if uint64(len(r.Data)) > raw || r.Val != uint64(len(r.Data)) {
			t.Fatalf("delivered %d bytes (Val %d) for count %d", len(r.Data), r.Val, raw)
		}
		if alloc > uint64(len(r.Data))+allocSlack {
			t.Fatalf("allocated %d bytes to deliver %d", alloc, len(r.Data))
		}
	})
}
