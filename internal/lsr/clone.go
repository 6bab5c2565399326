package lsr

import (
	"encoding/binary"
	"maps"
	"slices"

	"dgmc/internal/topo"
)

// Clone returns an independent copy of the instance: same switch, same
// image, same staleness-protection state. The image and the routing table
// are immutable values (HandleLSA replaces them rather than editing them),
// so the copy shares them; only the mutable staleness map is copied (and
// left nil while empty). Clone only reads its source, so several
// goroutines may clone one instance at once. The schedule-exploration
// harness (internal/explore) uses it to branch a switch's state at a
// choice point, and live snapshots (internal/rt) use it to capture and
// restore one.
func (i *Instance) Clone() *Instance {
	c := &Instance{
		self:    i.self,
		image:   i.image,
		nextHop: i.nextHop,
		version: i.version,
		mySeq:   i.mySeq,
	}
	if len(i.seen) > 0 {
		c.seen = maps.Clone(i.seen)
	}
	return c
}

// AppendState appends a canonical encoding of the instance's
// behavior-relevant state to buf: the up/down bit of every link in stable
// link order, the own-advertisement sequence number, and the per-originator
// staleness horizon. Two instances with equal encodings react identically
// to every future input. Pure bookkeeping (the version counter, the
// routing table, which is a function of the image) is excluded so that
// different event orders reaching the same image compare equal.
func (i *Instance) AppendState(buf []byte) []byte {
	for k := 0; k < i.image.NumLinks(); k++ {
		if i.image.LinkAt(k).Down {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, i.mySeq)
	ids := make([]topo.SwitchID, 0, len(i.seen))
	for id := range i.seen {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(id)))
		buf = binary.BigEndian.AppendUint32(buf, i.seen[id])
	}
	return buf
}
