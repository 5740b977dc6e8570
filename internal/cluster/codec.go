package cluster

import "admission/internal/wire"

// AppendOp appends one operation's wire frame to buf and returns the
// extended buffer: the cluster-operation codec of internal/wire, which the
// cluster WAL records share. The encoding is canonical: DecodeOp of the
// produced frame re-encodes to the identical bytes.
func AppendOp(buf []byte, op Op) ([]byte, error) {
	return wire.AppendClusterOp(buf, byte(op.Kind), op.Tx, op.Edges, op.Cost)
}

// DecodeOp parses one submitted frame payload into an operation. The
// returned operation owns its edge slice (nothing aliases payload), so it
// is safe against pooled read buffers.
func DecodeOp(payload []byte) (Op, error) {
	kind, tx, req, err := wire.DecodeClusterOp(payload)
	return Op{Kind: OpKind(kind), Tx: tx, Edges: req.Edges, Cost: req.Cost}, err
}
