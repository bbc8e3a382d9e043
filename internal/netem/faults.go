// Fault materialization: the handlers and server-end write paths that
// turn a fault.Decision into observable connection behaviour. Every
// path here is deadlock-safe on the rendezvous transport (a Write
// returns only once the peer has read it, see Conn) and yields a
// deterministic failure class on the client:
//
//   - reset:    the ClientHello is consumed in full, then the
//     connection closes abruptly -> FailPeerClosed.
//   - stall:    blackHole (the Staller signal) -> FailIncomplete,
//     with no wall-clock wait.
//   - truncate: the server's first write is cut short and the
//     connection closes -> FailPeerClosed.
//   - corrupt:  one byte of the server's Certificate message flips;
//     the client reads the full flight before reacting, so the alert
//     or close it answers with never crosses a write in flight.
package netem

import (
	"io"
	"net"

	"repro/internal/fault"
)

// resetAfterHello serves the KindReset fault: it reads exactly one TLS
// record (the ClientHello) and then closes. Reading the full record
// matters twice over — the client's blocking record write completes
// (no partial-write deadlock), and the mirror observes the same bytes
// at any scheduling, keeping captured artifacts bit-identical.
func resetAfterHello(conn net.Conn, _ ConnMeta) {
	defer conn.Close()
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return
	}
	bodyLen := int(hdr[3])<<8 | int(hdr[4])
	// Cap at the TLS record-size limit; nonsense lengths (a plaintext
	// peer, say) just close immediately — Close unblocks their writer.
	if bodyLen > 0 && bodyLen <= 1<<14+2048 {
		io.CopyN(io.Discard, conn, int64(bodyLen))
	}
}

// blackHole serves the KindStall fault: it swallows everything the
// client sends and never answers. It declares the stall up front, so
// the client's read fails with a timeout at once instead of waiting out
// its handshake deadline — same failure class, no wall-clock wait.
func blackHole(conn net.Conn, _ ConnMeta) {
	defer conn.Close()
	conn.(Staller).StallPeer()
	io.Copy(io.Discard, conn)
}

// corruptTargetWrite selects the server's Certificate-message payload:
// wire.WriteRecord writes a header, then a payload, so writes one and
// two are the ServerHello record, which the client parses on receipt.
const corruptTargetWrite = 4

// degradedWrite is the server end's Write under the truncate and
// corrupt faults. Truncate cuts the first write short at a seeded
// offset and closes; later writes fail without touching the transport.
// Corrupt flips one seeded byte of write corruptTargetWrite.
func (c *Conn) degradedWrite(b []byte) (int, error) {
	w := c.faultWrites.Add(1)
	if c.fault == fault.KindCorrupt {
		if w == corruptTargetWrite && len(b) > 0 {
			q := append([]byte(nil), b...)
			mask := byte(c.entropy >> 8)
			if mask == 0 {
				mask = 0x5a
			}
			q[int(c.entropy%uint64(len(b)))] ^= mask
			b = q
		}
		return c.write(b)
	}
	if w > 1 {
		return 0, io.ErrClosedPipe
	}
	if len(b) >= 2 {
		b = b[:1+int(c.entropy%uint64(len(b)-1))]
	}
	n, err := c.write(b)
	c.Close()
	if err == nil {
		err = io.ErrClosedPipe
	}
	return n, err
}
