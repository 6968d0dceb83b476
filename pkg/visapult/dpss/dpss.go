// Package dpss is the public surface of the Distributed-Parallel Storage
// System reproduction: the network data cache of the paper's section 3.2
// (master catalog, striped block servers, block-level client API).
//
// It re-exports the internal implementation as aliases, so clients built
// here plug straight into visapult.NewDPSSSource, and adds the staging
// helpers the administrative tools use.
package dpss

import (
	"context"
	"fmt"
	"time"

	"visapult/internal/datagen"
	"visapult/internal/dpss"
	"visapult/internal/dpss/fabric"
	"visapult/internal/hpss"
	"visapult/internal/offline"
	"visapult/internal/render"
	"visapult/internal/volume"
)

// Volume is a dense float32 scalar field (the same type as
// visapult.Volume).
type Volume = volume.Volume

// Image is a float RGBA image (the same type as visapult.Image).
type Image = render.Image

// Client is the block-level DPSS client: Create, Open, Stat, and striped
// parallel block reads across the cluster's servers.
type Client = dpss.Client

// ClientOption configures a client.
type ClientOption = dpss.ClientOption

// NewClient connects to the master at the given address.
var NewClient = dpss.NewClient

// WithClientShaper shapes the client's reads to emulate a WAN.
var WithClientShaper = dpss.WithClientShaper

// WithStripes sets how many parallel striped connections the client keeps
// per block server (the paper's parallel-socket data path).
var WithStripes = dpss.WithStripes

// WithStripeWindow bounds how many pipelined requests may be in flight per
// stripe connection.
var WithStripeWindow = dpss.WithStripeWindow

// Extent is one (offset, length, destination) piece of a vectored read; see
// File.ReadvScatter.
type Extent = dpss.Extent

// StripeStat is a per-stripe-connection transfer counter snapshot.
type StripeStat = dpss.StripeStat

// File is an open dataset handle; it implements io.ReaderAt over the
// cluster's blocks.
type File = dpss.File

// DatasetInfo describes one cached dataset.
type DatasetInfo = dpss.DatasetInfo

// Master is the dataset catalog and logical-to-physical block mapper.
type Master = dpss.Master

// NewMaster builds a master; call Listen to serve.
var NewMaster = dpss.NewMaster

// BlockServer serves blocks striped over several in-memory disks.
type BlockServer = dpss.BlockServer

// ServerOption configures a block server.
type ServerOption = dpss.ServerOption

// NewBlockServer builds a block server; call Listen to serve.
var NewBlockServer = dpss.NewBlockServer

// WithDisks sets the number of disks a block server stripes over.
var WithDisks = dpss.WithDisks

// WithPipelineWorkers bounds how many pipelined (v2) requests a block server
// services concurrently per client connection.
var WithPipelineWorkers = dpss.WithPipelineWorkers

// Cluster is an in-process DPSS installation (master plus block servers),
// the stand-in for the paper's four-server terabyte DPSS at LBL.
type Cluster = dpss.Cluster

// ClusterConfig sizes a cluster.
type ClusterConfig = dpss.ClusterConfig

// StartCluster starts an in-process cluster.
var StartCluster = dpss.StartCluster

// DefaultBlockSize is the cache's default logical block size.
const DefaultBlockSize = dpss.DefaultBlockSize

// TimestepDatasetName names timestep t of a multi-step dataset (base.tNNNN).
var TimestepDatasetName = dpss.TimestepDatasetName

// Fabric federates several DPSS clusters into one logical cache: rendezvous
// placement, R-way replication, health-tracked client-side failover.
type Fabric = fabric.Fabric

// FabricConfig sizes a Fabric.
type FabricConfig = fabric.Config

// FabricClusterSpec names one member cluster and its master address.
type FabricClusterSpec = fabric.ClusterSpec

// FabricClusterHealth is one member's health snapshot.
type FabricClusterHealth = fabric.ClusterHealth

// FabricDatasetReplicas describes one dataset's replica presence.
type FabricDatasetReplicas = fabric.DatasetReplicas

// FabricEpochState is the serializable placement-epoch snapshot (see
// Fabric.Epoch, Fabric.AdvanceEpoch, Fabric.SealEpoch).
type FabricEpochState = fabric.EpochState

// RebalanceOptions shapes one rebalance-engine run; RebalanceReport
// summarizes it; DatasetMove is one live (dataset, target) copy record. The
// engine itself is driven through Fabric.Rebalance, Fabric.Repair and
// Fabric.DrainToEmpty.
type (
	RebalanceOptions = fabric.RebalanceOptions
	RebalanceReport  = fabric.RebalanceReport
	DatasetMove      = fabric.DatasetMove
)

// NewFabric builds a federation handle; no connection is made until use.
var NewFabric = fabric.New

// Archive is the simulated HPSS tertiary store warming pipelines stage from.
type Archive = hpss.Archive

// NewArchive creates an empty archive with no delay model.
var NewArchive = hpss.NewArchive

// NewArchiveWithModel creates an archive paced like late-1990s tape staging.
var NewArchiveWithModel = hpss.NewArchiveWithModel

// WarmConfig shapes a fabric cache-warming run.
type WarmConfig = hpss.WarmConfig

// WarmProgress is one per-cluster progress event of a warming run.
type WarmProgress = hpss.WarmProgress

// WarmReport summarizes a warming run.
type WarmReport = hpss.WarmReport

// WarmFabric stages archive files into every placement replica of the
// federation — the HPSS-to-DPSS migration step, scaled to multiple caches.
var WarmFabric = hpss.WarmFabric

// WarmTimesteps warms base's timesteps [0, steps) into the federation.
var WarmTimesteps = hpss.WarmTimesteps

// ThumbnailOptions configures offline preview generation.
type ThumbnailOptions = offline.ThumbnailOptions

// ThumbnailMetadata is the catalog metadata produced next to a preview.
type ThumbnailMetadata = offline.Metadata

// Thumbnail renders a preview image plus catalog metadata for one cached
// timestep — the paper's section 5 offline visualization service. Cancelling
// ctx aborts the cache reads in flight.
func Thumbnail(ctx context.Context, client *Client, base string, nx, ny, nz, timestep int, opts ThumbnailOptions) (*Image, *ThumbnailMetadata, error) {
	return offline.Thumbnail(ctx, client, base, nx, ny, nz, timestep, opts)
}

// StageCombustion generates the synthetic combustion dataset and writes each
// timestep into the cache through the ordinary client API (the paper's
// HPSS-to-DPSS migration step). It returns the per-timestep encoded size and
// the time spent in cache writes alone — data generation excluded — so
// callers can report genuine cache throughput.
func StageCombustion(client *Client, base string, nx, ny, nz, steps, blockSize int, seed int64) (stepBytes int64, writeTime time.Duration, err error) {
	if seed == 0 {
		seed = 2000
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	gen := datagen.NewCombustion(datagen.CombustionConfig{
		NX: nx, NY: ny, NZ: nz, Timesteps: steps, Seed: seed,
	})
	for t := 0; t < steps; t++ {
		name := TimestepDatasetName(base, t)
		data := gen.Generate(t).Marshal()
		stepBytes = int64(len(data))
		if _, err := client.Create(name, int64(len(data)), blockSize); err != nil {
			return stepBytes, writeTime, fmt.Errorf("creating %s: %w", name, err)
		}
		f, err := client.Open(name)
		if err != nil {
			return stepBytes, writeTime, fmt.Errorf("opening %s: %w", name, err)
		}
		start := time.Now()
		_, werr := f.WriteAt(data, 0)
		writeTime += time.Since(start)
		if werr != nil {
			return stepBytes, writeTime, fmt.Errorf("writing %s: %w", name, werr)
		}
	}
	return stepBytes, writeTime, nil
}

// WarmCombustion generates the synthetic combustion dataset and warms it
// into the federation through the HPSS staging pipeline: every timestep is
// stored whole-file in an in-memory archive, then staged into all of its
// placement replicas concurrently with the warm-ahead window — the
// federation-scale version of StageCombustion.
func WarmCombustion(ctx context.Context, fb *Fabric, base string, nx, ny, nz, steps int, seed int64, cfg WarmConfig) (*WarmReport, error) {
	if seed == 0 {
		seed = 2000
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	gen := datagen.NewCombustion(datagen.CombustionConfig{
		NX: nx, NY: ny, NZ: nz, Timesteps: steps, Seed: seed,
	})
	a := NewArchive()
	for t := 0; t < steps; t++ {
		a.Store(TimestepDatasetName(base, t), gen.Generate(t).Marshal())
	}
	return WarmTimesteps(ctx, a, fb, base, steps, cfg)
}

// StageVolumes writes pre-built volumes into the cache as consecutive
// timesteps of base.
func StageVolumes(cluster *Cluster, client *Client, base string, blockSize int, vols ...*Volume) error {
	for t, v := range vols {
		if _, err := cluster.LoadVolume(client, TimestepDatasetName(base, t), v, blockSize); err != nil {
			return err
		}
	}
	return nil
}
