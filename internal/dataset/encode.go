package dataset

import (
	"encoding/binary"
	"fmt"
)

// ErrCorrupt is wrapped by every decode-side failure: truncated or
// bit-flipped shard bytes, impossible lengths, trailing garbage,
// checksum or record-count mismatches, and malformed manifests all
// surface as errors satisfying errors.Is(err, ErrCorrupt) — never as
// panics. The fuzz-like corruption tests pin this contract.
var ErrCorrupt = fmt.Errorf("dataset: corrupt")

// corruptf builds a wrapped corruption error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// maxRecordLen bounds a single record's encoded payload. The largest
// real record (a probe report over 209 CAs) is a few kilobytes; the cap
// exists so a bit-flipped length prefix cannot demand a giant
// allocation.
const maxRecordLen = 1 << 24

// enc is an append-only record encoder. All integers are varints, so
// the format is density-independent of host word size and endianness.
type enc struct {
	b []byte
}

// grow reserves space for at least n more bytes (the cheap size pass:
// callers estimate a record's encoded size up front so the buffer grows
// once instead of doubling through the appends).
func (e *enc) grow(n int) {
	if cap(e.b)-len(e.b) < n {
		nb := make([]byte, len(e.b), len(e.b)+n)
		copy(nb, e.b)
		e.b = nb
	}
}

func (e *enc) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i64(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) u16(v uint16) { e.u64(uint64(v)) }
func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) boolean(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) u16s(vs []uint16) {
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.u16(v)
	}
}

func (e *enc) u8s(vs []uint8) {
	e.u64(uint64(len(vs)))
	e.b = append(e.b, vs...)
}

func (e *enc) strs(vs []string) {
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.str(v)
	}
}

// dec is a bounds-checked record decoder with a sticky error: the
// first malformed read poisons the decoder and every later read
// returns a zero value, so record codecs read fields linearly and
// check err once at the end.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corruptf(format, args...)
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) u16() uint16 {
	v := d.u64()
	if d.err == nil && v > 0xffff {
		d.fail("value %d exceeds uint16", v)
	}
	return uint16(v)
}

func (d *dec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) boolean() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid boolean")
		return false
	}
}

// length reads a list/string length and verifies it can possibly fit in
// the remaining bytes (each element takes at least one byte), so a
// corrupted length can never drive a huge allocation.
func (d *dec) length() int {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.b)) {
		d.fail("length %d exceeds %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	n := d.length()
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) u16s() []uint16 {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint16, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.u16())
	}
	return out
}

func (d *dec) u8s() []uint8 {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint8, n)
	copy(out, d.b[:n])
	d.b = d.b[n:]
	return out
}

func (d *dec) strs() []string {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.str())
	}
	return out
}

// finish asserts the record was consumed exactly.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return corruptf("%d trailing bytes after record", len(d.b))
	}
	return nil
}
