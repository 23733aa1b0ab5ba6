// Package covert implements the paper's two proof-of-concept covert
// channels (§5.4). Both abuse the MVEE's own replication machinery to move
// variant-private data (randomized pointer values) from the master variant
// into the slave variants, after which all variants can emit the value
// through ordinary output *without* causing divergence — undermining the
// assumption that a monitor catches any leak of variant-specific data.
//
//   - The timestamp channel exploits replication of sys_gettimeofday
//     results: the master delays data-dependently between two clock reads;
//     the slaves receive the master's timestamps and recover the data from
//     the delta.
//   - The trylock channel exploits replication of synchronization
//     operations: whether a pthread_mutex_trylock succeeds in the master is
//     faithfully replayed in the slaves, so lock-hold durations transmit
//     bits.
//
// As in the paper, these are demonstrations of an MVEE-generic issue, not
// of a flaw introduced by the synchronization agents.
package covert

import (
	"fmt"
	"math/bits"
	"runtime"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/synclib"
)

// SecretBits is the number of low pointer bits each PoC transmits.
const SecretBits = 16

// Secret returns the variant-private value the PoCs leak: the low bits of
// a (diversified) data address, which differ across variants under ASLR.
func Secret(t *core.Thread) uint64 {
	return t.DataAddr(8) >> 3 & (1<<SecretBits - 1)
}

// spin busywaits for roughly n iterations of arithmetic, yielding the
// processor periodically so that the peer thread can run even on a single
// CPU (the delay loops of real PoCs call sched_yield for the same reason).
// Yields are unmonitored, so the data-dependent iteration count never
// changes the instruction sequence the agents see.
func spin(n int) uint32 {
	x := uint32(88172645)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		if i&4095 == 4095 {
			runtime.Gosched()
		}
	}
	return x
}

// delayIterations tunes the timestamp channel's "1" delay. It must be long
// enough to dominate scheduling noise in the replicated timestamp deltas.
const delayIterations = 800000

// tsRounds is how many times the timestamp channel sends each phase's
// whole message. Scheduling noise only ever ADDS to a measured delta, so a
// bit's minimum over its samples is its noise-free level — provided one
// sample escapes the noise. The rounds interleave (every bit once, then
// every bit again), so a noise burst that outlasts one bit's exchange lands
// on one sample of several bits instead of on every sample of one bit.
const tsRounds = 5

// preamble is the number of known bits, a 1 and then a 0, that start each
// round of the timestamp channel ahead of the secret's bits. They calibrate
// the decision threshold: halfway between the two levels this run
// measured, instead of a fixed share of whatever the largest delta
// happened to be.
const preamble = 2

// Role derives a variant's send phase from its secret, modelling the
// paper's "probabilistically decide whether a variant is the master or
// slave by having each variant hash a pointer value": a variant sends in
// phase Role and listens in the other phase. The hash is the pointer's
// parity, which is unbiased across ASLR layouts (the low bits of an
// allocation address are alignment-constant, so they would not do).
func Role(secret uint64) int { return bits.OnesCount64(secret) & 1 }

// TimestampChannel builds the §5.4 timestamp-delta PoC program.
//
// The exchange runs in two phases. In phase p, every variant whose hashed
// pointer ("role") equals p delays data-dependently between two
// gettimeofday calls; the others only measure. Because the variants run in
// lockstep and the master's timestamps are replicated, the measured delta
// reflects the slowest variant in the round, i.e. the senders' delays —
// regardless of which variant is the MVEE master. At the end, every
// variant knows the union of the senders' secrets for each phase ("both
// variants have the randomized pointer values of both themselves and the
// other variant"), and writes them out identically: the leak escapes
// without divergence. The result lands in /covert-ts as "phase0-phase1".
func TimestampChannel() core.Program {
	return core.Program{Name: "covert-timestamp", Main: func(t *core.Thread) {
		secret := Secret(t)
		role := Role(secret)
		var results [2]uint64
		for phase := 0; phase < 2; phase++ {
			sending := role == phase
			// Slots 0 and 1 carry the preamble, slot preamble+i secret bit
			// i. Each slot keeps its minimum delta over the rounds.
			var deltas [preamble + SecretBits]uint64
			for i := range deltas {
				deltas[i] = ^uint64(0)
			}
			for round := 0; round < tsRounds; round++ {
				for slot := range deltas {
					one := slot == 0 || slot >= preamble && secret>>uint(slot-preamble)&1 == 1
					t1 := t.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil).Val
					if sending && one {
						spin(delayIterations)
					}
					t2 := t.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil).Val
					deltas[slot] = min(deltas[slot], t2-t1)
				}
			}
			// A "1" bit's minimum is never below the spin time; a "0"
			// bit's minimum sheds scheduling noise. The preamble measured
			// both levels; split the difference.
			threshold := (deltas[0] + deltas[1]) / 2
			for bit := 0; bit < SecretBits; bit++ {
				if deltas[preamble+bit] > threshold {
					results[phase] |= 1 << uint(bit)
				}
			}
		}
		// The deltas derive from replicated timestamps, so every variant
		// computed identical results: this write does not diverge.
		fd := t.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/covert-ts")).Val
		t.Syscall(kernel.SysWrite, [6]uint64{fd},
			[]byte(fmt.Sprintf("%04x-%04x", results[0], results[1])))
		t.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
	}}
}

// Trylock channel tuning. The sender's lock-hold time is either ~0 (bit 0)
// or holdIterations of spinning (bit 1); the receiver probes after
// probeDelayIterations, which must land between the two.
const (
	holdIterations       = 2000000
	probeDelayIterations = 50000
)

// lockRounds is how many times the trylock channel sends the whole secret.
// One probe misreads a bit when the scheduler stalls the receiver past a
// "1" hold or the sender past the probe of a "0"; the receiver decodes each
// bit by majority vote over the rounds, which interleave so that one stall
// costs several bits one vote each rather than one bit all of its votes.
const lockRounds = 5

// TrylockChannel builds the §5.4 trylock PoC program: per bit, thread 1
// (sender) takes a mutex, announces the bit, and delays its unlock for a
// data-dependent duration ("the unlocking happens after a data-dependent
// loop"); thread 2 (receiver) probes with a single TryLock after a fixed
// delay, and takes each bit's majority over lockRounds. The instruction
// sequence is identical in every variant — only the master's *timing*
// decides the outcomes, and the replication of sync ops forces the slaves'
// TryLock outcomes to match the master's. The recovered value lands in
// /covert-lock.
func TrylockChannel() core.Program {
	return core.Program{Name: "covert-trylock", Main: func(t *core.Thread) {
		secret := Secret(t)
		m := synclib.NewMutex(t)
		announce := t.NewSyncVar() // sender announces transmission k as value k+1
		ack := t.NewSyncVar()      // receiver acknowledges with k+1

		recv := t.Spawn(func(tt *core.Thread) {
			var votes [SecretBits]int
			for k := 0; k < lockRounds*SecretBits; k++ {
				bit := k % SecretBits
				// Wait for the sender's announcement (made while the
				// sender holds the lock).
				for tt.Load(announce) != uint32(k+1) {
					tt.Yield()
				}
				// Probe once, after the fixed delay: long past a bit-0
				// unlock, well inside a bit-1 hold. The outcome branch is
				// taken identically in every variant because the CAS
				// outcome is dictated by the recorded sync-op order.
				spin(probeDelayIterations)
				if !m.TryLock(tt) {
					votes[bit]++
				} else {
					m.Unlock(tt)
				}
				tt.Store(ack, uint32(k+1))
			}
			var recovered uint64
			for bit, n := range votes {
				if 2*n > lockRounds {
					recovered |= 1 << uint(bit)
				}
			}
			fd := tt.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/covert-lock")).Val
			tt.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(fmt.Sprintf("%04x", recovered)))
			tt.Syscall(kernel.SysClose, [6]uint64{fd}, nil)
		})

		for k := 0; k < lockRounds*SecretBits; k++ {
			m.Lock(t)
			t.Store(announce, uint32(k+1))
			// The data-dependent delay: timing only, never a different
			// instruction sequence — slaves replay the same ops.
			if secret>>uint(k%SecretBits)&1 == 1 {
				spin(holdIterations)
			}
			m.Unlock(t)
			for t.Load(ack) != uint32(k+1) {
				t.Yield()
			}
		}
		recv.Join()
	}}
}
