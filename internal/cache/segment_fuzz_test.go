package cache

import (
	"bytes"
	"testing"
)

// FuzzCacheSegment feeds arbitrary bytes to the segment reader: it must
// never panic, and any image it accepts must round-trip — re-encoding
// the scanned records reproduces an image that scans to identical
// records (keys, values, digests). The corpus seeds cover a sealed
// segment, a truncated tail, a flipped value byte, and oversized length
// declarations.
func FuzzCacheSegment(f *testing.F) {
	var good []byte
	good = append(good, segMagic...)
	good = appendRecord(good, "aa/run/bb", []byte("payload"), recordSum("aa/run/bb", []byte("payload")))
	good = appendRecord(good, "aa/idx/cc", []byte(""), recordSum("aa/idx/cc", []byte("")))
	f.Add(good)
	f.Add(good[:len(good)-3])             // truncated tail
	f.Add([]byte(segMagic))               // sealed but empty
	f.Add([]byte("not a segment at all")) // bad magic
	tampered := bytes.Clone(good)
	tampered[len(segMagic)+recHeadLen+12] ^= 0x01 // flip a payload byte
	f.Add(tampered)
	huge := append([]byte(segMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	f.Add(huge) // impossible declared lengths

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := scanSegment(data)
		if err != nil {
			return
		}
		// Accepted: the records must re-encode to an image that scans to
		// the same structure.
		reenc := []byte(segMagic)
		for _, r := range recs {
			val := data[r.off : r.off+int64(r.vlen)]
			if recordSum(r.key, val) != r.sum {
				t.Fatalf("accepted record %q fails its own digest", r.key)
			}
			reenc = appendRecord(reenc, r.key, val, r.sum)
		}
		recs2, err := scanSegment(reenc)
		if err != nil {
			t.Fatalf("re-encoded segment rejected: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(recs2))
		}
		for i := range recs {
			if recs[i].key != recs2[i].key || recs[i].vlen != recs2[i].vlen || recs[i].sum != recs2[i].sum {
				t.Fatalf("round trip changed record %d: %+v -> %+v", i, recs[i], recs2[i])
			}
		}
	})
}
