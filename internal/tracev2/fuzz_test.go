package tracev2

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
)

// refreshCRCs returns a copy of data in which every frame that is fully
// present carries the CRC of its payload. The frame walk is the file
// layout's: magic, u32 header length, header, then frame headers and
// payloads back to back.
func refreshCRCs(data []byte) []byte {
	data = bytes.Clone(data)
	if len(data) < len(magic)+4 {
		return data
	}
	off := uint64(len(magic)+4) + uint64(binary.LittleEndian.Uint32(data[len(magic):]))
	for off+frameHdrSize <= uint64(len(data)) {
		hdr := data[off : off+frameHdrSize]
		end := off + frameHdrSize + uint64(binary.LittleEndian.Uint32(hdr[5:]))
		if end > uint64(len(data)) {
			break
		}
		binary.LittleEndian.PutUint32(hdr[9:], crc32.Checksum(data[off+frameHdrSize:end], castagnoli))
		off = end
	}
	return data
}

// FuzzOpenReplay opens arbitrary bytes as a trace and replays every
// frame. NewReader and Next may reject the input with an error but must
// never panic, and the whole open-and-drain may allocate at most 64 bytes
// per input byte plus 1 MiB. The harness refreshes every present frame's
// CRC before opening: otherwise nearly every mutation stops at the CRC
// check and never reaches the frame decoder.
func FuzzOpenReplay(f *testing.F) {
	const n = 6
	valid := writeRun(f, makeRun(f, n, 5, true, 31), n, 3)
	f.Add(valid)
	f.Add(writeRun(f, makeRun(f, n, 4, false, 32), n, 2))
	// Regression inputs: a frame header claiming a 4 GiB payload past the
	// end, a header-only trace declaring 2^40 agents, and a CRC-valid
	// keyframe far too short for the N its header declares.
	f.Add(appendFrameHeader(bytes.Clone(valid), kindDelta, 6, 0xFFFFFFFF, 0))
	f.Add(headerOnly(1 << 40))
	short := make([]byte, 1+16*4)
	f.Add(append(appendFrameHeader(headerOnly(1<<30), kindKey, 0, uint32(len(short)), 0), short...))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = refreshCRCs(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if rd, err := NewReader(bytes.NewReader(data)); err == nil {
			rp := rd.Replayer()
			for rp.Next() == nil {
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+1<<20; got > limit {
			t.Fatalf("opening and replaying a %d-byte input allocated %d bytes, limit %d", len(data), got, limit)
		}
	})
}
