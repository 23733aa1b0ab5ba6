package kernel

import "encoding/binary"

// Vectored and zero-copy transfer syscalls (writev, sendfile). Both exist
// to shrink the number of monitored records a served request costs: writev
// folds a header+body pair into one gather-write record, and sendfile moves
// file bytes straight into the destination stream's buffer so the page
// never rides a record payload at all.

// iovLenSize is the wire size of one iovec length prefix.
const iovLenSize = 4

// EncodeIovec appends the writev wire format for segs to dst and returns
// the extended slice: one little-endian u32 length per segment, followed by
// the segments' bytes concatenated. The caller passes the result as
// Call.Data with Args[1] = len(segs). Guests serving a constant response
// encode it once and reuse the buffer.
func EncodeIovec(dst []byte, segs ...[]byte) []byte {
	for _, s := range segs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	}
	for _, s := range segs {
		dst = append(dst, s...)
	}
	return dst
}

// decodeIovec validates the iovec wire format against the declared segment
// count and returns the flat payload (the concatenated segment bytes). The
// segment lengths must sum exactly to the remaining bytes — a trailing gap
// or overhang is EINVAL, not silence.
func decodeIovec(data []byte, cnt int) ([]byte, Errno) {
	// Bound by division, not cnt*iovLenSize: the count arrives as a raw
	// guest-controlled Args word, and the multiplication would wrap for
	// huge counts, sailing past the length check into the prefix loop.
	if cnt < 0 || cnt > len(data)/iovLenSize {
		return nil, EINVAL
	}
	sum := 0
	for i := 0; i < cnt; i++ {
		sum += int(binary.LittleEndian.Uint32(data[i*iovLenSize:]))
	}
	payload := data[cnt*iovLenSize:]
	if sum != len(payload) {
		return nil, EINVAL
	}
	return payload, OK
}

// doWritev implements SysWritev: Args[0] fd, Args[1] iovec count, Data the
// iovec wire format. The segments are contiguous on the wire, so once the
// vector is validated the transfer is a single gather-write of the flat
// payload — through the same stream/seekable paths (and the same
// EINTR/short-count semantics) as SysWrite. Val is the payload bytes
// written, excluding the length prefixes.
func (k *Kernel) doWritev(p *Proc, c Call) Ret {
	payload, errno := decodeIovec(c.Data, int(c.Args[1]))
	if errno != OK {
		return Ret{Err: errno}
	}
	return k.doWrite(p, Call{Nr: SysWrite, Args: c.Args, Data: payload, Tid: c.Tid})
}

// doSendfile implements SysSendfile: transfer Args[3] bytes of the regular
// file Args[1] into the stream Args[0], starting at file offset Args[2] —
// or, when Args[2] is SendfileCurOffset, at the in-fd's open-file-
// description offset, which is then advanced by the bytes sent UNDER THE
// DESCRIPTION LOCK. The lock is held across the transfer, serializing
// concurrent current-offset senders on the same description exactly like
// Linux serializes f_pos — which is what makes fork'd workers sharing one
// inherited descriptor carve the file into disjoint ranges. An explicit
// offset leaves the description offset untouched (Linux sendfile(2) with a
// non-NULL offset pointer). Val is the byte count actually sent; a transfer
// interrupted after partial progress returns the short count with no error,
// and EINTR only on zero progress, like every stream write here.
func (k *Kernel) doSendfile(p *Proc, c Call) Ret {
	outFD := int(c.Args[0])
	outRef, errno := p.lookupFD(outFD)
	if errno != OK {
		return Ret{Err: errno}
	}
	inRef, errno := p.lookupFD(int(c.Args[1]))
	if errno != OK {
		return Ret{Err: errno}
	}
	out, ok := outRef.obj.(stream)
	if !ok {
		return Ret{Err: EINVAL} // out-fd must be a stream (pipe/socket)
	}
	if outRef.stale() {
		return Ret{Err: EBADF}
	}
	f, ok := inRef.obj.(*fileObj)
	if !ok {
		return Ret{Err: EINVAL} // in-fd must be a regular file
	}
	if inRef.accessMode() == OWronly {
		return Ret{Err: EBADF}
	}
	count, errno := guestCount(c.Args[3])
	if errno != OK {
		return Ret{Err: errno}
	}
	src := source{ino: f.ino}
	var e *openFile // non-nil: the transfer moves the shared offset
	if c.Args[2] == SendfileCurOffset {
		// Holding e.mu across the (possibly blocking) send serializes f_pos
		// movement, so two workers' current-offset sendfiles never overlap
		// ranges.
		if e, ok = inRef.lockOffset(); !ok {
			return Ret{Err: EBADF}
		}
		defer e.mu.Unlock()
		src.off = e.offset
	} else if src.off, errno = guestOffset(c.Args[2]); errno != OK {
		return Ret{Err: errno}
	}
	src.n = f.ino.avail(src.off, count)
	n, errno := out.send(src, p.blk(c.Tid, outFD))
	if e != nil {
		e.offset += int64(n)
	}
	if n == 0 && errno != OK {
		return Ret{Err: errno}
	}
	return Ret{Val: uint64(n)}
}
