package dpss

import (
	"fmt"
	"sync"
)

// Disk models one physical disk attached to a block server. Blocks are kept
// in memory (the DPSS is a cache, not an archive).
type Disk struct {
	mu     sync.Mutex
	blocks map[blockKey][]byte

	bytesRead    int64
	bytesWritten int64
	reads        int64
	writes       int64
}

// NewDisk returns an empty in-memory disk.
func NewDisk() *Disk {
	return &Disk{blocks: make(map[blockKey][]byte)}
}

// blockKey names one stored block. Keying on the pair, not a joined string,
// keeps dataset "a" from matching the blocks of dataset "a/b".
type blockKey struct {
	dataset string
	block   int64
}

// WriteBlock stores a block (copying the data).
func (d *Disk) WriteBlock(dataset string, block int64, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	d.mu.Lock()
	d.blocks[blockKey{dataset, block}] = cp
	d.bytesWritten += int64(len(data))
	d.writes++
	d.mu.Unlock()
}

// ReadBlock returns a copy of a stored block, or ErrUnknownBlock.
func (d *Disk) ReadBlock(dataset string, block int64) ([]byte, error) {
	d.mu.Lock()
	data, ok := d.blocks[blockKey{dataset, block}]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s block %d", ErrUnknownBlock, dataset, block)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	d.mu.Lock()
	d.bytesRead += int64(len(data))
	d.reads++
	d.mu.Unlock()
	return cp, nil
}

// HasBlock reports whether the disk stores the given block.
func (d *Disk) HasBlock(dataset string, block int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.blocks[blockKey{dataset, block}]
	return ok
}

// DropDataset removes every block of the named dataset and returns how many
// blocks were evicted, supporting the cache role of the DPSS.
func (d *Disk) DropDataset(dataset string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	dropped := 0
	for k := range d.blocks {
		if k.dataset == dataset {
			delete(d.blocks, k)
			dropped++
		}
	}
	return dropped
}

// DiskStats summarizes one disk's activity.
type DiskStats struct {
	Blocks       int
	BytesStored  int64
	BytesRead    int64
	BytesWritten int64
	Reads        int64
	Writes       int64
}

// Stats returns a snapshot of the disk's counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	var stored int64
	for _, b := range d.blocks {
		stored += int64(len(b))
	}
	return DiskStats{
		Blocks:       len(d.blocks),
		BytesStored:  stored,
		BytesRead:    d.bytesRead,
		BytesWritten: d.bytesWritten,
		Reads:        d.reads,
		Writes:       d.writes,
	}
}
