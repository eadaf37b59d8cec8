/**
 * @file
 * Mellanox Bluefield SmartNIC platform (paper §2, Fig. 2b): eight
 * 64-bit ARM A72 cores at 800 MHz behind the NIC ASIC and an
 * internal PCIe switch, running BlueOS Linux in multi-homed mode —
 * "the SNIC CPU runs as a separate machine with its own network
 * stack and IP address".
 *
 * In this reproduction the Bluefield is therefore its own network
 * node: it owns a NIC on the switch fabric plus a pool of worker
 * cores, and the Lynx runtime is *placed* on it by building the
 * RuntimeConfig from lynxRuntimeConfig(). The same Lynx code runs on
 * host Xeon cores with hostRuntimeConfig() — the paper's
 * source-compatibility claim (§5.1) holds by construction.
 */

#ifndef LYNX_SNIC_BLUEFIELD_HH
#define LYNX_SNIC_BLUEFIELD_HH

#include <string>

#include "lynx/calibration.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "net/nic.hh"
#include "sim/processor.hh"
#include "sim/simulator.hh"

namespace lynx::snic {

/** Static parameters of one Bluefield card. */
struct BluefieldConfig
{
    /** Worker cores available to Lynx ("We use 7 ARM cores (out of
     *  8)", §6.1). */
    int workerCores = calibration::bluefieldWorkerCores;

    /** Link rate: the testbed Bluefield is a 25 Gb/s part (§6). */
    net::NicConfig nic{calibration::bluefieldGbps,
                       sim::nanoseconds(300), 4096};
};

/** One Bluefield SmartNIC attached to the fabric. */
class Bluefield
{
  public:
    Bluefield(sim::Simulator &sim, net::Network &network,
              const std::string &name, BluefieldConfig cfg = {})
        : name_(name),
          cores_(sim, name + ".arm", static_cast<std::size_t>(
                                          cfg.workerCores)),
          nic_(network.addNic(name + ".nic", cfg.nic))
    {}

    Bluefield(const Bluefield &) = delete;
    Bluefield &operator=(const Bluefield &) = delete;

    const std::string &name() const { return name_; }
    sim::CorePool &cores() { return cores_; }
    net::Nic &nic() { return nic_; }

    /** @return network node id of the SNIC (its own IP, §2). */
    std::uint32_t node() const { return nic_.node(); }

    /**
     * @return a RuntimeConfig that places Lynx on this Bluefield:
     * ARM-calibrated VMA stack and dispatcher/forwarder costs.
     */
    core::RuntimeConfig
    lynxRuntimeConfig()
    {
        core::RuntimeConfig cfg;
        for (std::size_t i = 0; i < cores_.size(); ++i)
            cfg.cores.push_back(&cores_[i]);
        cfg.nic = &nic_;
        cfg.stack = calibration::vmaBluefield();
        cfg.backendStack = calibration::backendTcpBluefield();
        cfg.dispatchCpu = calibration::dispatchCpuArm;
        cfg.forwarder.forwardCpu = calibration::forwardCpuArm;
        cfg.forwarder.pollBackoffMin = calibration::snicPollDiscovery;
        cfg.forwarder.pollBackoffMax = calibration::snicPollDiscovery;
        cfg.forwarder.scanPerQueue = sim::nanoseconds(35);
        cfg.gio.localLatency = calibration::gpuLocalMemLatency;
        cfg.gio.perByte = calibration::gpuLocalPerByte;
        return cfg;
    }

  private:
    std::string name_;
    sim::CorePool cores_;
    net::Nic &nic_;
};

/**
 * @return a RuntimeConfig that places the same Lynx code on host
 * Xeon @p cores behind @p nic ("Lynx on the host CPU: runs the same
 * code as on Bluefield", §6.1).
 */
inline core::RuntimeConfig
hostRuntimeConfig(std::vector<sim::Core *> cores, net::Nic &nic)
{
    core::RuntimeConfig cfg;
    cfg.cores = std::move(cores);
    cfg.nic = &nic;
    cfg.stack = calibration::vmaXeon();
    cfg.backendStack = calibration::backendTcpXeon();
    cfg.dispatchCpu = calibration::dispatchCpuXeon;
    cfg.forwarder.forwardCpu = calibration::forwardCpuXeon;
    cfg.forwarder.pollBackoffMin = calibration::snicPollDiscovery;
    cfg.forwarder.pollBackoffMax = calibration::snicPollDiscovery;
    cfg.forwarder.scanPerQueue = sim::nanoseconds(15);
    cfg.gio.localLatency = calibration::gpuLocalMemLatency;
    cfg.gio.perByte = calibration::gpuLocalPerByte;
    return cfg;
}

} // namespace lynx::snic

#endif // LYNX_SNIC_BLUEFIELD_HH
