package telem

// Segment framing: a cas frame (internal/cas file.go: magic, version,
// payload length, CRC-32C) under the "QTSG" magic, around a
// schema-versioned JSON payload. A segment failing either check is
// corrupt (quarantined), so old and new binaries can share a directory
// without misreading each other.

import (
	"encoding/json"
	"fmt"

	"github.com/scaffold-go/multisimd/internal/cas"
)

// SegmentSchemaVersion versions the JSON payload inside the frame,
// independently of the frame itself.
const SegmentSchemaVersion = 1

// segmentMagic names a telemetry segment frame.
var segmentMagic = [4]byte{'Q', 'T', 'S', 'G'}

// Sample is one telemetry point in time: every series' value at TSMS
// (unix milliseconds).
type Sample struct {
	TSMS   int64              `json:"ts"`
	Values map[string]float64 `json:"v"`
}

// segmentPayload is the JSON inside one sealed segment. Samples are in
// append (time) order; DS is the downsampling level the segment has
// been rewritten at (0 = raw).
type segmentPayload struct {
	Schema  int      `json:"schema"`
	DS      int      `json:"ds"`
	Samples []Sample `json:"samples"`
}

// encodeSegment frames a payload for disk.
func encodeSegment(p segmentPayload) ([]byte, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	return cas.EncodeFrame(segmentMagic, body), nil
}

// decodeSegment validates framing and payload schema.
func decodeSegment(data []byte) (segmentPayload, error) {
	var p segmentPayload
	body, err := cas.DecodeFrame(segmentMagic, data)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(body, &p); err != nil {
		return p, fmt.Errorf("telem: segment payload: %w", err)
	}
	if p.Schema != SegmentSchemaVersion {
		return p, fmt.Errorf("telem: payload schema %d, this build reads %d", p.Schema, SegmentSchemaVersion)
	}
	return p, nil
}
