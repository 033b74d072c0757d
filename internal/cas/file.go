package cas

// The on-disk record discipline shared by every store in the module:
// this package's records, telem's segments and its postmortem bundles.
// A frame is a fixed little-endian header ahead of the payload:
//
//	offset 0  magic   4 bytes naming the record kind ("QCAS", "QTSG")
//	offset 4  version uint32 (currently 1)
//	offset 8  length  uint64 (payload bytes)
//	offset 16 crc     uint32 (Castagnoli CRC-32 of the payload)
//	offset 20 payload
//
// Version increments on any incompatible layout change; readers treat
// unknown versions as corrupt, so old and new binaries can share a
// directory without misreading each other. Files are written whole
// (temp file + atomic rename), so a crash leaves either the old state
// or a *.tmp that SweepTemp removes at the next open.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// Frame layout constants.
const (
	FrameVersion = 1
	HeaderSize   = 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame frames payload under magic: header, then the payload bytes.
func EncodeFrame(magic [4]byte, payload []byte) []byte {
	data := make([]byte, HeaderSize+len(payload))
	copy(data[0:4], magic[:])
	binary.LittleEndian.PutUint32(data[4:8], FrameVersion)
	binary.LittleEndian.PutUint64(data[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(data[16:20], crc32.Checksum(payload, crcTable))
	copy(data[HeaderSize:], payload)
	return data
}

// DecodeFrame validates a frame written under magic and returns its
// payload (aliasing data).
func DecodeFrame(magic [4]byte, data []byte) ([]byte, error) {
	if len(data) < HeaderSize {
		return nil, fmt.Errorf("cas: %s frame truncated at %d bytes", magic[:], len(data))
	}
	if [4]byte(data[0:4]) != magic {
		return nil, fmt.Errorf("cas: bad magic %q, want %q", data[0:4], magic[:])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != FrameVersion {
		return nil, fmt.Errorf("cas: %s frame version %d, this build reads %d", magic[:], v, FrameVersion)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if uint64(len(data)-HeaderSize) != n {
		return nil, fmt.Errorf("cas: %s payload length %d, header says %d", magic[:], len(data)-HeaderSize, n)
	}
	payload := data[HeaderSize:]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(data[16:20]); got != want {
		return nil, fmt.Errorf("cas: %s checksum %08x, header says %08x", magic[:], got, want)
	}
	return payload, nil
}

// WriteFileAtomic writes data to path through a temp file in the same
// directory and an atomic rename, so readers see the old file or the
// whole new one. The temp file is removed on any error.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Quarantine moves a file that failed validation to dst for postmortem;
// if the move fails the file is removed so it cannot fail again.
func Quarantine(path, dst string) {
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
}

// SweepTemp removes the temp files a crashed WriteFileAtomic left in dir
// and returns dir's remaining entries.
func SweepTemp(dir string) ([]os.DirEntry, error) {
	ents, err := os.ReadDir(dir)
	kept := ents[:0]
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		kept = append(kept, e)
	}
	return kept, err
}
