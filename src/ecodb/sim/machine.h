// The simulated test machine: composition of CPU, memory, disk, GPU,
// motherboard and PSU, with full energy accounting.
//
// The query engine charges abstract work units (CPU cycles, memory line
// accesses, disk requests); the machine converts them to simulated time
// using the current PVC settings and integrates per-component energy,
// total DC energy, and wall energy (through the PSU efficiency curve).
// This is the stand-in for the paper's instrumented ASUS P5Q3 testbed.

#ifndef ECODB_SIM_MACHINE_H_
#define ECODB_SIM_MACHINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ecodb/sim/clock.h"
#include "ecodb/sim/cpu.h"
#include "ecodb/sim/disk.h"
#include "ecodb/sim/memory.h"
#include "ecodb/sim/psu.h"
#include "ecodb/sim/sensor.h"
#include "ecodb/sim/settings.h"
#include "ecodb/util/status.h"

namespace ecodb {

/// Hardware inventory + calibration for one simulated machine. The
/// has_*/num_* fields exist so the Table 1 build-up experiment can
/// instantiate partial machines.
struct MachineConfig {
  CpuConfig cpu;
  MemoryConfig mem;
  DiskConfig disk;
  PsuConfig psu;
  double mobo_on_dc_w;
  double cpu_activation_dc_w;  ///< board circuitry enabled by CPU install
  double gpu_idle_dc_w;

  bool has_cpu = true;
  /// Physical cores on the package (the E8500 is a dual-core part). Each
  /// core carries its own CpuModel so PVC settings become a per-core knob;
  /// the memory bus and the package-level accounting follow the
  /// machine-wide settings.
  int num_cores = 2;
  int num_dimms = 2;
  bool has_gpu = true;
  bool has_disk = true;
  /// False models the Table 1 stages before an OS is present: the CPU has
  /// no EIST governor and busy-idles in firmware at the top p-state.
  bool os_running = true;

  /// The paper's full system under test (Section 3.1).
  static MachineConfig PaperTestbed();
};

/// Per-component energy + time breakdown since the last ResetMeters().
struct EnergyLedger {
  double cpu_j = 0.0;      ///< CPU package (what the EPU sensor sees)
  double fan_j = 0.0;
  double mem_j = 0.0;      ///< DIMM background + access energy
  double disk_5v_j = 0.0;  ///< electronics rail
  double disk_12v_j = 0.0; ///< spindle + actuator rail
  double mobo_j = 0.0;
  double gpu_j = 0.0;
  double dc_j = 0.0;       ///< sum of all component DC energy
  double wall_j = 0.0;     ///< AC energy through the PSU curve

  double busy_s = 0.0;     ///< time with the CPU executing
  double io_s = 0.0;       ///< time blocked on disk
  double idle_s = 0.0;     ///< explicit idle time

  double DiskJ() const { return disk_5v_j + disk_12v_j; }
  double ElapsedS() const { return busy_s + io_s + idle_s; }
};

/// Per-core work/energy accrual since the last ResetCoreLedgers(). This is
/// the *concurrency view* of a scheduled phase (exec/morsel.h): each
/// morsel's charges land on its core without advancing the shared clock
/// or the shared EnergyLedger, which the same charges already reached
/// through the query's ordinary ExecuteCpu stream.
struct CoreLedger {
  double busy_s = 0.0;      ///< time this core spent executing
  double cpu_j = 0.0;       ///< core package energy while busy
  double mem_j = 0.0;       ///< DRAM access energy for this core's lines
  double cycles = 0.0;      ///< raw cycles accrued
  double mem_lines = 0.0;   ///< raw cache lines accrued
};

/// Roll-up of the per-core ledgers into phase-level time/energy: the
/// makespan is the slowest core's busy time (workers run concurrently);
/// cores that finish early sit in their idle p-state for the remainder;
/// the rest of the system (board, DIMM background, disk idle, GPU, fan)
/// draws its idle power for the whole makespan. Wall energy applies the
/// PSU curve to the phase-average DC power. This is what turns the
/// paper's single-core voltage/frequency tradeoff into the race-to-idle
/// vs. slow-and-wide comparison.
struct ParallelPhaseSummary {
  double makespan_s = 0.0;
  double busy_sum_s = 0.0;     ///< sum of per-core busy time (work volume);
                               ///< busy_sum_s / makespan_s = core speedup
  double core_cpu_j = 0.0;     ///< sum of busy-core package energy
  double core_mem_j = 0.0;     ///< sum of per-core DRAM access energy
  double idle_fill_j = 0.0;    ///< early-finishing cores idling to makespan
  double background_j = 0.0;   ///< non-CPU system power over the makespan
  double dc_j = 0.0;
  double wall_j = 0.0;
};

/// A named slice of the per-core ledgers: the deltas accrued between two
/// MarkCorePhase calls. The morsel schedule marks a phase per spine
/// ("stream", "join_build", "agg", "sort"), so benches can report where
/// the core speedup comes from — the streaming spine vs. the breaker
/// build phases.
struct CorePhase {
  std::string label;
  std::vector<CoreLedger> ledgers;  ///< per-core deltas for this phase
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  /// Applies PVC settings (validated for stability) to CPU and memory bus,
  /// and to every core (machine-wide reset of the per-core knobs).
  Status ApplySettings(const SystemSettings& settings);
  const SystemSettings& settings() const { return cpu_.settings(); }

  // --- Per-core P-state control ---

  /// Applies PVC settings to one core only (validated for stability).
  /// The memory bus and the shared-ledger charge path keep following the
  /// machine-wide settings; per-core settings shape the concurrency view
  /// (AccrueCoreWork / SummarizeCorePhase).
  Status ApplyCoreSettings(int core, const SystemSettings& settings);
  int num_cores() const { return static_cast<int>(cores_.size()); }
  const CpuModel& core_model(int core) const {
    return cores_[static_cast<size_t>(core)];
  }

  /// Sets how the current workload loads the CPU (see LoadClass).
  void SetLoadClass(LoadClass cls) { load_class_ = cls; }
  LoadClass load_class() const { return load_class_; }

  // --- Work charging (advance simulated time + integrate energy) ---

  /// One burst of computation: `cycles` CPU cycles plus `mem_lines` cache
  /// lines fetched from DRAM. Duration accounts for frequency, the fixed
  /// DRAM-core latency, and bus contention at the (underclocked) memory
  /// bus — the mechanism behind the convex slowdown at 10-15 % underclock.
  /// The two-argument form charges at the machine-wide load class; the
  /// three-argument form lets each ExecContext carry its own (per-query
  /// profiles must not stomp a shared machine global).
  void ExecuteCpu(double cycles, double mem_lines) {
    ExecuteCpu(cycles, mem_lines, load_class_);
  }
  void ExecuteCpu(double cycles, double mem_lines, LoadClass cls);

  /// Accrues one burst of scheduled work onto `core`'s ledger: its
  /// duration/power are evaluated against that core's own CpuModel (its
  /// private P-state), but neither the shared clock nor the shared
  /// EnergyLedger move — simulated workers overlap in time, and the same
  /// charges reach the shared account through ExecuteCpu.
  void AccrueCoreWork(int core, double cycles, double mem_lines,
                      LoadClass cls);
  const std::vector<CoreLedger>& core_ledgers() const { return core_ledgers_; }
  void ResetCoreLedgers();
  /// Rolls the per-core ledgers up into phase time/energy (see
  /// ParallelPhaseSummary).
  ParallelPhaseSummary SummarizeCorePhase() const;
  /// Rolls an arbitrary per-core ledger vector up the same way (used for
  /// the per-phase slices in core_phases()).
  ParallelPhaseSummary SummarizeCoreLedgers(
      const std::vector<CoreLedger>& ledgers) const;

  /// Snapshots the per-core ledger deltas accrued since the previous mark
  /// (or since ResetCoreLedgers) as a named phase. All-zero deltas are
  /// dropped — a pool that accrued nothing leaves no phase behind.
  void MarkCorePhase(const std::string& label);
  const std::vector<CorePhase>& core_phases() const { return core_phases_; }

  /// One batch of disk reads; the CPU sits in its EIST idle state while
  /// blocked (this is why the paper's cold run averages only ~13.8 W CPU).
  Status DiskRead(uint64_t bytes, uint64_t n_requests, bool random);

  /// Explicit idle (system on, nothing running).
  void Idle(double seconds);

  // --- Failure injection (tests) ---

  /// After `n` more disk requests, every DiskRead fails with
  /// kHardwareFault until ClearFaults() is called.
  void InjectDiskFaultAfterRequests(uint64_t n);
  void ClearFaults();

  // --- Measurement ---

  double NowSeconds() const { return clock_.Now(); }
  const EnergyLedger& ledger() const { return ledger_; }
  EpuSensor& epu() { return epu_; }

  /// Zeroes the ledger and the EPU sensor (clock keeps running, as the
  /// real machine's clock would).
  void ResetMeters();

  // --- Static power queries (no time advance; Table 1 support) ---

  /// Total DC power with the machine on and idle.
  double IdleDcPowerW() const;
  /// Wall power with the machine on and idle.
  double IdleWallPowerW() const;
  /// Wall power with the machine soft-off (PSU standby).
  double StandbyWallPowerW() const { return psu_.StandbyWallPowerW(); }

  /// Instantaneous CPU package power if busy right now.
  double BusyCpuPowerW() const { return cpu_model().BusyPowerW(load_class_); }

  const CpuModel& cpu_model() const { return cpu_; }
  const MemoryModel& memory_model() const { return mem_; }
  const DiskModel& disk_model() const { return disk_; }
  const PsuModel& psu_model() const { return psu_; }
  const MachineConfig& config() const { return config_; }

  /// Compute/stall breakdown of one ExecuteCpu burst.
  struct ExecBreakdown {
    double compute_s = 0;  ///< cycles / frequency
    double stall_s = 0;    ///< DRAM latency + bus contention
    double TotalS() const { return compute_s + stall_s; }
  };

  /// Duration breakdown that ExecuteCpu(cycles, mem_lines) would take
  /// under the current settings, without executing it (used by the
  /// energy-aware cost model to predict run times).
  ExecBreakdown PredictExecuteBreakdown(double cycles,
                                        double mem_lines) const;
  /// Same prediction evaluated against an arbitrary core's CpuModel (the
  /// shared memory model still supplies latency/bandwidth/contention —
  /// the bus follows the machine-wide settings).
  ExecBreakdown PredictExecuteBreakdownFor(const CpuModel& core,
                                           double cycles,
                                           double mem_lines) const;
  double PredictExecuteSeconds(double cycles, double mem_lines) const {
    return PredictExecuteBreakdown(cycles, mem_lines).TotalS();
  }
  /// Average CPU package power over such a burst.
  double PredictExecutePowerW(double cycles, double mem_lines) const;

 private:
  /// Integrates dt seconds at the given CPU power and disk activity
  /// premiums into the ledger, PSU and sensors.
  void Accrue(double dt_s, double cpu_w, double disk_extra_5v_w,
              double disk_extra_12v_w, double mem_access_j);

  double CpuIdlePowerW() const;

  MachineConfig config_;
  SimClock clock_;
  CpuModel cpu_;
  MemoryModel mem_;
  DiskModel disk_;
  PsuModel psu_;
  EpuSensor epu_;
  EnergyLedger ledger_;
  LoadClass load_class_ = LoadClass::kSustained;
  std::vector<CpuModel> cores_;         ///< per-core P-state models
  std::vector<CoreLedger> core_ledgers_;
  std::vector<CorePhase> core_phases_;   ///< named ledger slices (marks)
  std::vector<CoreLedger> phase_base_;   ///< ledger snapshot at last mark

  uint64_t disk_fault_countdown_ = 0;
  bool disk_faulted_ = false;
  bool fault_armed_ = false;
};

}  // namespace ecodb

#endif  // ECODB_SIM_MACHINE_H_
