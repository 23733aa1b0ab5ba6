package monitor_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/kernel"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// TestRecordWireGolden locks the trace.Version 6 record encoding
// byte-for-byte (version 6 changed the sync-op stream, not these bytes,
// which are version 5's). The wire layout (wire.go) is
//
//	u32 Nr | 6×u64 Args | u64 Val | u64 Val2 | u32 Err | u32 Sig |
//	u8 Inj | u32 len(Data) | Data | u64 Ts | u8 flags | u32 plen | payload
//
// little-endian throughout. Any drift — a field added, reordered, or
// widened without bumping trace.Version — shows up here as a byte diff, not
// as a silently unreadable trace three sessions later.
func TestRecordWireGolden(t *testing.T) {
	if trace.Version != 6 {
		t.Fatalf("trace.Version = %d; this golden pins version 6 — record a new golden alongside the bump", trace.Version)
	}

	r := monitor.Record{
		Nr:   kernel.SysWrite,
		Args: [6]uint64{0x0102030405060708, 2, 3, 4, 5, 6},
		Ret: kernel.Ret{
			Val:  0x1122334455667788,
			Val2: 9,
			Err:  kernel.EPIPE,
			Sig:  10,
			Inj:  kernel.InjError,
			Data: []byte("resp"),
		},
		Ts:      0xCAFEBABE,
		Ordered: true,
		Exit:    true,
	}
	r.SetPayload([]byte("hello"))

	var want []byte
	want = binary.LittleEndian.AppendUint32(want, 4) // SysWrite — enum IS wire format
	want = binary.LittleEndian.AppendUint64(want, 0x0102030405060708)
	for a := uint64(2); a <= 6; a++ {
		want = binary.LittleEndian.AppendUint64(want, a)
	}
	want = binary.LittleEndian.AppendUint64(want, 0x1122334455667788)
	want = binary.LittleEndian.AppendUint64(want, 9)
	want = binary.LittleEndian.AppendUint32(want, 32) // EPIPE
	want = binary.LittleEndian.AppendUint32(want, 10)
	want = append(want, kernel.InjError)
	want = binary.LittleEndian.AppendUint32(want, 4)
	want = append(want, "resp"...)
	want = binary.LittleEndian.AppendUint64(want, 0xCAFEBABE)
	want = append(want, 1|2) // wireFlagOrdered | wireFlagExit
	want = binary.LittleEndian.AppendUint32(want, 5)
	want = append(want, "hello"...)

	got, err := r.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("v6 record encoding drifted:\n got  %s\n want %s",
			hex.EncodeToString(got), hex.EncodeToString(want))
	}

	// And the golden bytes must decode back to the record, so the pin
	// guards both directions.
	var back monitor.Record
	if err := back.GobDecode(want); err != nil {
		t.Fatal(err)
	}
	if back.Nr != r.Nr || back.Args != r.Args || back.Ret.Val != r.Ret.Val ||
		back.Ret.Val2 != r.Ret.Val2 || back.Ret.Err != r.Ret.Err ||
		back.Ret.Sig != r.Ret.Sig || back.Ret.Inj != r.Ret.Inj ||
		!bytes.Equal(back.Ret.Data, r.Ret.Data) || back.Ts != r.Ts ||
		back.Ordered != r.Ordered || back.Exit != r.Exit ||
		!bytes.Equal(back.Payload(), r.Payload()) {
		t.Fatalf("golden bytes decoded to %+v, want %+v", back, r)
	}
}

// TestSysnoWireValues pins the numeric values that travel in the Nr word.
// trace.Version 5's only change was APPENDING SysWritev and SysSendfile to
// the enum; reordering or inserting mid-enum would silently re-map every
// recorded trace, so the load-bearing values are fixed here by number.
func TestSysnoWireValues(t *testing.T) {
	for _, pin := range []struct {
		nr   kernel.Sysno
		val  uint32
		name string
	}{
		{kernel.SysWrite, 4, "write"},
		{kernel.SysFutex, 33, "futex"},
		{kernel.SysPoll, 35, "poll"},
		{kernel.SysThreadExit, 41, "thread_exit"},
		{kernel.SysWritev, 42, "writev"},     // appended in v5
		{kernel.SysSendfile, 43, "sendfile"}, // appended in v5
	} {
		if uint32(pin.nr) != pin.val {
			t.Errorf("%s = %d, want %d: Sysno values are wire format (trace.Version %d); append, never reorder",
				pin.name, uint32(pin.nr), pin.val, trace.Version)
		}
		if got := pin.nr.String(); got != pin.name {
			t.Errorf("Sysno %d renders %q, want %q", uint32(pin.nr), got, pin.name)
		}
	}
}
