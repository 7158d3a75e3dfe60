// Package nvm models non-volatile memory technologies and the
// memory/storage-stack rethinking the paper calls for (§2.3 "Rethinking the
// Memory/Storage Stack"): device parameter models for DRAM, PCM, NAND
// flash and disk; endurance/wear tracking with start-gap and
// table-based wear leveling; and hybrid DRAM+NVM organizations.
//
// The architectural claims carried by these models are the ones the paper
// names: NVM's density/energy advantages, its asymmetric and slower writes,
// and device wear-out that the architecture must hide.
package nvm

import (
	"repro/internal/units"
)

// Device is a first-order memory/storage device model.
type Device struct {
	// ReadLatency and WriteLatency are per-access (64B line or sector as
	// appropriate to the level; the asymmetry matters, not the block size).
	ReadLatency  units.Time
	WriteLatency units.Time
	// ReadEnergy and WriteEnergy are per 64 bits.
	ReadEnergy  units.Energy
	WriteEnergy units.Energy
	// IdlePowerPerGB is background power (refresh for DRAM, ~0 for NVM).
	IdlePowerPerGB units.Power
}

// The modelled device library. Values are mid-2010s literature consensus
// (ballpark class values — the experiments depend on the orders of
// magnitude and the asymmetries, not the third digit).
var (
	// DRAM is commodity DDR-class memory.
	DRAM = Device{
		ReadLatency:    50 * units.Nanosecond,
		WriteLatency:   50 * units.Nanosecond,
		ReadEnergy:     2 * units.Nanojoule,
		WriteEnergy:    2 * units.Nanojoule,
		IdlePowerPerGB: 375 * units.Milliwatt, // refresh + background
	}
	// PCM is phase-change memory: denser, non-volatile, slow asymmetric
	// writes, limited endurance.
	PCM = Device{
		ReadLatency:    80 * units.Nanosecond,
		WriteLatency:   400 * units.Nanosecond,
		ReadEnergy:     2 * units.Nanojoule,
		WriteEnergy:    30 * units.Nanojoule,
		IdlePowerPerGB: 10 * units.Milliwatt,
	}
	// Flash is NAND flash (block-erase granularity folded into the write
	// figures), the technology "already starting to replace rotating
	// disks".
	Flash = Device{
		ReadLatency:    50 * units.Microsecond,
		WriteLatency:   500 * units.Microsecond,
		ReadEnergy:     30 * units.Nanojoule,
		WriteEnergy:    300 * units.Nanojoule,
		IdlePowerPerGB: 1 * units.Milliwatt,
	}
	// Disk is a rotating hard drive.
	Disk = Device{
		ReadLatency:    5 * units.Millisecond,
		WriteLatency:   5 * units.Millisecond,
		ReadEnergy:     1 * units.Millijoule,
		WriteEnergy:    1 * units.Millijoule,
		IdlePowerPerGB: 10 * units.Milliwatt,
	}
)
