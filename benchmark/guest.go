package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	mvee "repro"
	"repro/internal/core"
	"repro/internal/kernel"
)

// The syscall_mix guest: nproc threads, no sync ops, each replaying a
// seed-generated tape of monitored syscalls. The payload-size mix is the
// input property the replication hot path's behaviour depends on: getpid
// carries nothing, pwrite carries 64 B inline in the record
// (monitor.InlinePayload), pread returns 4 KiB that spills past it.

const (
	mixDataPath = "/mix/data" // pread source, populated by the harness
	mixOutPath  = "/mix/out"  // pwrite target, one 64 B slot per thread
	mixSumPath  = "/mix/sum"  // the guest's checksum of everything it pread

	mixDataSize  = 64 << 10
	mixReadSize  = 4096
	mixWriteSize = 64
	// mixSampleEvery: the master's threads time one syscall in this many
	// (two clock reads per sample: under 1% of the calls between samples).
	mixSampleEvery = 8
)

type mixOp uint8

const (
	opGetpid mixOp = iota
	opPwrite
	opPread
	opGettime
)

// mixStep is one tape entry: the call and, for pread/pwrite, the offset
// into the data file the bytes come from.
type mixStep struct {
	op  mixOp
	off uint32
}

// mixInput is everything generated from the seed: the data file, one tape
// per thread, and the checksum a correct run must report.
type mixInput struct {
	data   []byte
	tapes  [][]mixStep
	expect string
}

func newMixInput(seed int64, threads, perThread int) *mixInput {
	rng := rand.New(rand.NewSource(seed))
	in := &mixInput{data: make([]byte, mixDataSize), tapes: make([][]mixStep, threads)}
	rng.Read(in.data)
	sums := make([]uint64, threads)
	for t := range in.tapes {
		tape := make([]mixStep, perThread)
		for i := range tape {
			switch r := rng.Intn(100); {
			case r < 40:
				tape[i].op = opGetpid
			case r < 70:
				tape[i] = mixStep{opPwrite, uint32(rng.Intn(mixDataSize - mixWriteSize))}
			case r < 90:
				tape[i] = mixStep{opPread, uint32(rng.Intn(mixDataSize - mixReadSize))}
				sums[t] = mixFold(sums[t], in.data[tape[i].off:tape[i].off+mixReadSize])
			default:
				tape[i].op = opGettime
			}
		}
		in.tapes[t] = tape
	}
	in.expect = mixDigest(sums)
	return in
}

// mixFold folds one pread result into a running checksum: its length and
// 16 words sampled across it. Sampling keeps the guest's own work small
// beside the syscall it is there to check; a read at the wrong offset or
// of the wrong length still changes every sampled word.
func mixFold(sum uint64, p []byte) uint64 {
	sum = sum*31 + uint64(len(p))
	for i := 0; i+8 <= len(p); i += mixReadSize / 16 {
		sum = sum*31 + binary.LittleEndian.Uint64(p[i:])
	}
	return sum
}

func mixDigest(sums []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range sums {
		binary.LittleEndian.PutUint64(b[:], s)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// mixRecorder receives the master variant's sampled per-syscall latencies,
// one slice per guest thread. It is harness state, not guest state: only
// the master's threads touch it, and nothing in it feeds a syscall.
type mixRecorder struct {
	lat [][]int64
}

// mixProgram builds the guest. Main runs once per variant over the same
// closure, so all mutable guest state is allocated inside it.
func mixProgram(in *mixInput, rec *mixRecorder) core.Program {
	return core.Program{Name: "syscall-mix", Main: func(t *core.Thread) {
		master := t.IsMaster()
		src := t.Syscall(kernel.SysOpen, [6]uint64{kernel.ORdonly}, []byte(mixDataPath)).Val
		dst := t.Syscall(kernel.SysOpen, [6]uint64{kernel.OWronly}, []byte(mixOutPath)).Val
		sums := make([]uint64, len(in.tapes))
		hs := make([]*core.ThreadHandle, len(in.tapes))
		for w := range in.tapes {
			hs[w] = t.Spawn(func(tt *core.Thread) {
				tape := in.tapes[w]
				var sum uint64
				slot := uint64(w * mixWriteSize)
				for i, st := range tape {
					sample := master && i%mixSampleEvery == 0
					var t0 time.Time
					if sample {
						t0 = time.Now()
					}
					switch st.op {
					case opGetpid:
						tt.Syscall(kernel.SysGetpid, [6]uint64{}, nil)
					case opPwrite:
						tt.Syscall(kernel.SysPwrite, [6]uint64{dst, slot},
							in.data[st.off:st.off+mixWriteSize])
					case opPread:
						r := tt.Syscall(kernel.SysPread, [6]uint64{src, mixReadSize, uint64(st.off)}, nil)
						sum = mixFold(sum, r.Data)
					case opGettime:
						tt.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil)
					}
					if sample {
						rec.lat[w] = append(rec.lat[w], time.Since(t0).Nanoseconds())
					}
				}
				sums[w] = sum
			})
		}
		for _, h := range hs {
			h.Join()
		}
		mvee.WriteFile(t, mixSumPath, []byte(mixDigest(sums)))
	}}
}
