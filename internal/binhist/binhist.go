// Package binhist reads and writes histories in ellebin, the checker's
// compact binary wire format. Where jsonhist re-parses every key string
// and field name per op, ellebin puts the in-memory layout on the wire:
// object keys are interned once into an inline dictionary and referenced
// by dense varint IDs (the same scheme history.Interner uses in memory),
// integers are varints, and every record is length-prefixed so a reader
// can frame the stream without touching payload bytes.
//
// Layout (see docs/FORMATS.md for the full reference):
//
//	header:  8 bytes  EB 6C 6C 65 62 69 6E vv   (0xEB "llebin" + version)
//	record:  uvarint payload length, then payload
//	payload: kind byte, then kind-specific fields
//
// Two record kinds exist in version 1:
//
//	dict (0x01): the raw key bytes; implicitly assigns the next KeyID
//	op   (0x02): zigzag index, process, time; type byte; uvarint mop
//	             count; then per mop a tag byte (fun + read-value kind),
//	             uvarint KeyID, and the value varints
//
// A dictionary entry always precedes the first op referencing it, so the
// stream is decodable in one pass with no read-ahead. A second header at
// a record boundary starts a fresh stream segment (the dictionary
// resets), which makes concatenated ellebin files a valid stream and
// lets chunked producers re-send a standalone header per chunk.
//
// The framing is also the format's integrity story: a reader dropped at
// any byte offset other than a record boundary — a truncated file, a
// rotation that regrew past a tail reader's offset — sees a length,
// kind, type, or KeyID violation within one record and fails with an
// error wrapping ErrFraming instead of mis-parsing silently.
//
// A decoded list read is read-only, and may share memory with other
// reads of its key: the decoder keeps one trace buffer per KeyID,
// reset with the dictionary, and hands out prefixes of it
// (op.ShareList).
package binhist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/history"
	"repro/internal/op"
)

// Version is the current ellebin format version, written as the
// header's final byte. Decoders reject versions they do not know.
const Version = 1

// ContentType is the MIME type for ellebin chunk uploads to elled.
const ContentType = "application/x-ellebin"

// headerLen is the byte length of the stream header: 7 magic bytes plus
// the version byte.
const headerLen = 8

// magic is the 7-byte stream tag. The leading 0xEB ("Elle Binary") can
// never begin a JSON-lines history — JSON text starts with ASCII — so
// one peeked byte tells the two formats apart.
var magic = [7]byte{0xEB, 'l', 'l', 'e', 'b', 'i', 'n'}

// IsMagic reports whether b begins with the ellebin magic (any
// version). One byte is enough to distinguish ellebin from JSON lines;
// longer prefixes are matched as far as they go.
func IsMagic(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	n := len(b)
	if n > len(magic) {
		n = len(magic)
	}
	for i := 0; i < n; i++ {
		if b[i] != magic[i] {
			return false
		}
	}
	return true
}

// Record kinds.
const (
	recDict = 0x01 // payload: raw key bytes; assigns the next KeyID
	recOp   = 0x02 // payload: one op
)

// Read-value kinds, stored in a read mop's tag bits 3-4.
const (
	readUnknown = 0 // result unknown (invoke, fail, info)
	readNil     = 1 // observed the initial nil version (registers)
	readReg     = 2 // observed a register/counter value
	readList    = 3 // observed a list/set value (possibly empty)
)

// maxRecordBytes bounds one record's payload. Far above any real op —
// a million-element list read is ~5 MB — it exists so a corrupt or
// adversarial length prefix cannot demand a gigabyte allocation.
const maxRecordBytes = 1 << 26

// ErrFraming tags every record-structure violation: bad magic, an
// unknown version or record kind, a length prefix that doesn't match
// its payload, a KeyID with no dictionary entry, a stream ending
// mid-record. Callers use errors.Is(err, ErrFraming) to distinguish
// "this is not (or no longer) a well-formed ellebin stream" — the
// signature of truncation or rotation under a tail reader — from
// ordinary I/O errors.
var ErrFraming = errors.New("invalid ellebin framing")

func framingErr(format string, args ...any) error {
	return fmt.Errorf("binhist: %w: %s", ErrFraming, fmt.Sprintf(format, args...))
}

// zigzag folds signed integers into unsigned varint-friendly form.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// An Encoder writes ops as an ellebin stream, interning keys into the
// inline dictionary as they first appear. The header is written before
// the first record; Flush must be called (or Encode used) to drain the
// underlying buffered writer.
type Encoder struct {
	w      *bufio.Writer
	ids    map[string]uint64
	buf    []byte // payload scratch, reused across records
	opened bool
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriter(w), ids: make(map[string]uint64)}
}

// WriteOp appends one op to the stream, preceded by dictionary records
// for any keys it introduces. It refuses, writing nothing, an op the
// decoder would refuse: a register write or read of op.NilVersion.
func (e *Encoder) WriteOp(o op.Op) error {
	for _, m := range o.Mops {
		if m.F == op.FWrite && m.Arg == op.NilVersion || m.F == op.FRead && m.List == nil && m.RegKnown && !m.RegNil && m.Reg == op.NilVersion {
			return fmt.Errorf("binhist: %w", op.ErrNilVersion)
		}
	}
	if !e.opened {
		e.opened = true
		if _, err := e.w.Write(magic[:]); err != nil {
			return err
		}
		if err := e.w.WriteByte(Version); err != nil {
			return err
		}
	}
	for _, m := range o.Mops {
		if _, ok := e.ids[m.Key]; !ok {
			e.ids[m.Key] = uint64(len(e.ids))
			e.buf = append(e.buf[:0], recDict)
			e.buf = append(e.buf, m.Key...)
			if err := e.writeRecord(e.buf); err != nil {
				return err
			}
		}
	}
	b := append(e.buf[:0], recOp)
	b = binary.AppendUvarint(b, zigzag(int64(o.Index)))
	b = binary.AppendUvarint(b, zigzag(int64(o.Process)))
	b = binary.AppendUvarint(b, zigzag(o.Time))
	b = append(b, byte(o.Type))
	b = binary.AppendUvarint(b, uint64(len(o.Mops)))
	for _, m := range o.Mops {
		tag := byte(m.F)
		if m.F == op.FRead {
			switch {
			case m.List != nil:
				tag |= readList << 3
			case m.RegKnown && m.RegNil:
				tag |= readNil << 3
			case m.RegKnown:
				tag |= readReg << 3
			}
		}
		b = append(b, tag)
		b = binary.AppendUvarint(b, e.ids[m.Key])
		switch {
		case m.F != op.FRead:
			b = binary.AppendUvarint(b, zigzag(int64(m.Arg)))
		case m.List != nil:
			b = binary.AppendUvarint(b, uint64(len(m.List)))
			for _, v := range m.List {
				b = binary.AppendUvarint(b, zigzag(int64(v)))
			}
		case m.RegKnown && !m.RegNil:
			b = binary.AppendUvarint(b, zigzag(int64(m.Reg)))
		}
	}
	e.buf = b
	return e.writeRecord(b)
}

func (e *Encoder) writeRecord(payload []byte) error {
	var lp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lp[:], uint64(len(payload)))
	if _, err := e.w.Write(lp[:n]); err != nil {
		return err
	}
	_, err := e.w.Write(payload)
	return err
}

// Flush writes the header if no op has been written yet (an empty
// stream is still a valid, tagged stream) and drains the buffer.
func (e *Encoder) Flush() error {
	if !e.opened {
		e.opened = true
		if _, err := e.w.Write(magic[:]); err != nil {
			return err
		}
		if err := e.w.WriteByte(Version); err != nil {
			return err
		}
	}
	return e.w.Flush()
}

// Encode writes h to w as one ellebin stream.
func Encode(w io.Writer, h *history.History) error {
	e := NewEncoder(w)
	for _, o := range h.Ops {
		if err := e.WriteOp(o); err != nil {
			return err
		}
	}
	return e.Flush()
}
