package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Property: a pipe is a faithful FIFO byte stream for any chunking of
// writes and reads.
func TestPipeFIFOProperty(t *testing.T) {
	f := func(chunks [][]byte, readSizes []uint8) bool {
		p := newPipe()
		gen := p.generation()
		var want []byte
		total := 0
		for _, c := range chunks {
			if total+len(c) > pipeBufSize/2 {
				break // stay below capacity: this test is single-threaded
			}
			n, errno := p.send(gen, bytesSource(c), blocker{})
			if errno != OK || n != len(c) {
				return false
			}
			want = append(want, c...)
			total += len(c)
		}
		p.shut(gen, false, true)
		var got []byte
		i := 0
		for {
			size := 1
			if len(readSizes) > 0 {
				size = int(readSizes[i%len(readSizes)])%64 + 1
			}
			// Alternate the two destinations recv serves: the caller's
			// buffer, and a fresh exactly-sized slice.
			var dst []byte
			if i%2 == 0 {
				dst = make([]byte, size)
			}
			out, errno := p.recv(gen, dst, size, blocker{})
			if errno != OK || len(out) > size || (dst != nil && len(out) > 0 && &out[0] != &dst[0]) {
				return false
			}
			if len(out) == 0 {
				break // EOF
			}
			got = append(got, out...)
			i++
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the bytes' source is the only thing that differs between a send
// from memory and a sendfile. The same script — payload sizes, a reader that
// drains or closes while the sender sleeps on the full pipe, signals that
// interrupt the sleep — leaves the same stream, short counts and errnos
// whether each send reads a []byte or an inode holding the same bytes.
func TestSendSourcesAreEquivalent(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		memLog, memStream := runSendScript(t, seed, false)
		fileLog, fileStream := runSendScript(t, seed, true)
		if !slices.Equal(memLog, fileLog) {
			t.Fatalf("seed %d: results differ\n[]byte: %v\ninode:  %v", seed, memLog, fileLog)
		}
		if !bytes.Equal(memStream, fileStream) {
			t.Fatalf("seed %d: streams differ (%d vs %d bytes)", seed, len(memStream), len(fileStream))
		}
	}
}

// runSendScript plays seed's script on a fresh pipe. The driver reacts only
// while the sender is asleep on a full pipe (or after it returned), and
// between reactions the sender's progress is a function of the pipe state
// alone, so the interleaving is the same on every run of a seed.
func runSendScript(t *testing.T, seed int64, fromFile bool) (log []string, stream []byte) {
	rng := rand.New(rand.NewSource(seed))
	p := newPipe()
	gen := p.generation()
	proc := NewProc(1, NewAddressSpace(0, 0))
	for step := 0; step < 6; step++ {
		payload := make([]byte, rng.Intn(pipeBufSize*3/2)+1)
		rng.Read(payload)
		pad := rng.Intn(64) // the file holds the payload at a nonzero offset
		src := bytesSource(payload)
		if fromFile {
			ino := &inode{data: append(make([]byte, pad), payload...)}
			src = source{ino: ino, off: int64(pad), n: len(payload)}
		}
		var n int
		var errno Errno
		done := make(chan struct{})
		go func() {
			n, errno = p.send(gen, src, proc.blk(0, 0))
			close(done)
		}()
		for asleepOnFullPipe(t, p, done) {
			switch rng.Intn(6) {
			case 0: // interrupt the sleep
				proc.sendSignal(SIGUSR1)
				p.kick()
				<-done
			case 1: // the reader goes away
				p.shut(gen, true, false)
				<-done
			default: // the reader drains some
				out, rerrno := p.recv(gen, nil, rng.Intn(pipeBufSize)+1, blocker{})
				log = append(log, fmt.Sprintf("recv %d %v", len(out), rerrno))
				stream = append(stream, out...)
			}
		}
		log = append(log, fmt.Sprintf("send %d of %d: %v", n, len(payload), errno))
		if rng.Intn(2) == 0 {
			proc.TakeSignal()
		}
	}
	p.shut(gen, false, true)
	for {
		out, errno := p.recv(gen, nil, pipeBufSize, blocker{})
		if errno != OK || len(out) == 0 {
			return append(log, fmt.Sprintf("end %v", errno)), stream
		}
		stream = append(stream, out...)
	}
}

// asleepOnFullPipe waits until the in-flight send either returned (false)
// or is parked with the pipe full (true) — the two states it can rest in.
func asleepOnFullPipe(t *testing.T, p *pipe, done <-chan struct{}) (asleep bool) {
	t.Helper()
	spinUntil(t, "send returned or parked", func() bool {
		select {
		case <-done:
			return true
		default:
		}
		p.mu.Lock()
		asleep = p.waiting == 1 && p.unread() == pipeBufSize
		p.mu.Unlock()
		return asleep
	})
	return asleep
}

// Property: file write-then-read round-trips at any offset.
func TestInodeReadWriteProperty(t *testing.T) {
	f := func(data []byte, offRaw uint16) bool {
		if len(data) == 0 {
			return true
		}
		off := int64(offRaw % 4096)
		ino := &inode{}
		if n := ino.writeAt(data, off); n != len(data) {
			return false
		}
		if ino.size() != off+int64(len(data)) {
			return false
		}
		buf := make([]byte, len(data))
		if n := ino.readAt(buf, off); n != len(data) {
			return false
		}
		return bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: descriptor allocation always picks the lowest free fd >= 3.
func TestLowestFreeFDProperty(t *testing.T) {
	f := func(closesRaw []uint8) bool {
		k := New()
		p := k.NewProc(0x1000, 0x7000_0000)
		// Open 16 files: fds 3..18.
		for i := 0; i < 16; i++ {
			r := k.Do(p, Call{Nr: SysOpen, Args: [6]uint64{OCreat | ORdwr},
				Data: []byte{'/', byte('a' + i)}})
			if !r.Ok() {
				return false
			}
		}
		// Close an arbitrary subset.
		closed := map[int]bool{}
		for _, c := range closesRaw {
			fd := 3 + int(c%16)
			if !closed[fd] {
				k.Do(p, Call{Nr: SysClose, Args: [6]uint64{uint64(fd)}})
				closed[fd] = true
			}
		}
		// Reopen one file: must land on the lowest closed fd (or 19).
		lowest := 19
		for fd := 3; fd < 19; fd++ {
			if closed[fd] {
				lowest = fd
				break
			}
		}
		r := k.Do(p, Call{Nr: SysOpen, Args: [6]uint64{OCreat | ORdwr}, Data: []byte("/zz")})
		return r.Ok() && int(r.Val) == lowest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Brk never returns a value below the base, and Mmap regions
// never overlap.
func TestAddressSpaceProperties(t *testing.T) {
	f := func(reqs []uint32) bool {
		as := NewAddressSpace(0x10000, 0x7000_0000)
		type region struct{ start, end uint64 }
		var regions []region
		for _, r := range reqs {
			n := uint64(r%(1<<20) + 1)
			addr, errno := as.Mmap(n)
			if errno != OK {
				return false
			}
			end := addr + ((n + PageSize - 1) &^ uint64(PageSize-1))
			for _, x := range regions {
				if addr < x.end && x.start < end {
					return false // overlap
				}
			}
			regions = append(regions, region{addr, end})
		}
		return as.Brk(0) >= 0x10000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
