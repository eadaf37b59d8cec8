/**
 * @file
 * Unit tests of the unified metrics registry (sim/metrics.hh):
 * registration/deregistration, duplicate-path unique-ification,
 * prefix aggregation, and the JSON snapshot (which must parse).
 * Also checks that building a full Lynx deployment populates the
 * registry with the documented component paths — the integration
 * contract every dashboard/bench consumer relies on.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "json_lite.hh"

#include "accel/gpu.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "snic/bluefield.hh"

using namespace lynx;

TEST(Metrics, AddRemoveAndEntriesAreSorted)
{
    sim::MetricsRegistry reg;
    sim::StatSet a, b, c;
    EXPECT_EQ(reg.add("z.last", a), "z.last");
    EXPECT_EQ(reg.add("a.first", b), "a.first");
    EXPECT_EQ(reg.add("m.mid", c), "m.mid");
    EXPECT_EQ(reg.size(), 3u);

    auto entries = reg.entries();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].first, "a.first");
    EXPECT_EQ(entries[1].first, "m.mid");
    EXPECT_EQ(entries[2].first, "z.last");
    EXPECT_EQ(entries[1].second, &c);

    reg.remove(c);
    EXPECT_EQ(reg.size(), 2u);
    reg.remove(c); // removing twice is harmless
    EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, DuplicatePathsGetUniqueSuffixes)
{
    sim::MetricsRegistry reg;
    sim::StatSet a, b, c;
    EXPECT_EQ(reg.add("net.nic", a), "net.nic");
    EXPECT_EQ(reg.add("net.nic", b), "net.nic#2");
    EXPECT_EQ(reg.add("net.nic", c), "net.nic#3");

    // Removing the base entry frees its name for the next add.
    reg.remove(a);
    sim::StatSet d;
    EXPECT_EQ(reg.add("net.nic", d), "net.nic");
}

TEST(Metrics, AggregateCounterSumsOverPrefix)
{
    sim::MetricsRegistry reg;
    sim::StatSet n0, n1, other;
    n0.counter("tx_msgs").add(3);
    n1.counter("tx_msgs").add(4);
    other.counter("tx_msgs").add(100);
    reg.add("net.nic.cli0", n0);
    reg.add("net.nic.cli1", n1);
    reg.add("rdma.qp.q0", other);

    EXPECT_EQ(reg.aggregateCounter("net.nic.", "tx_msgs"), 7u);
    EXPECT_EQ(reg.aggregateCounter("", "tx_msgs"), 107u);
    EXPECT_EQ(reg.aggregateCounter("gio.", "tx_msgs"), 0u);
}

TEST(Metrics, JsonSnapshotParsesAndCarriesValues)
{
    sim::MetricsRegistry reg;
    sim::StatSet s;
    s.counter("ops").add(42);
    s.histogram("lat").record(1000);
    s.histogram("lat").record(3000);
    reg.add("comp.with\"quote", s);

    std::ostringstream os;
    reg.json(os);
    jsonlite::Value doc = jsonlite::parse(os.str());

    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc.has("comp.with\"quote"));
    const jsonlite::Value &comp = doc.at("comp.with\"quote");
    EXPECT_EQ(comp.at("counters").at("ops").number, 42.0);
    const jsonlite::Value &lat = comp.at("histograms").at("lat");
    EXPECT_EQ(lat.at("count").number, 2.0);
    EXPECT_EQ(lat.at("min").number, 1000.0);
    EXPECT_EQ(lat.at("max").number, 3000.0);
    EXPECT_EQ(lat.at("mean").number, 2000.0);
}

TEST(Metrics, DumpMentionsEveryPath)
{
    sim::MetricsRegistry reg;
    sim::StatSet a, b;
    a.counter("x").add(1);
    reg.add("alpha", a);
    reg.add("beta", b);
    std::ostringstream os;
    reg.dump(os);
    EXPECT_NE(os.str().find("alpha"), std::string::npos);
    EXPECT_NE(os.str().find("x"), std::string::npos);
}

/**
 * Integration contract: constructing a full Lynx-on-Bluefield echo
 * deployment registers each component under its documented prefix,
 * and destroying the deployment (before the Simulator dies) leaves
 * only the simulator's own "sim.engine" counters in the registry —
 * proving no dangling registrations.
 */
TEST(Metrics, FullDeploymentRegistersDocumentedPaths)
{
    sim::Simulator s;
    {
        net::Network nw(s);
        snic::Bluefield bf(s, nw, "bf0");
        nw.addNic("client");
        pcie::Fabric fabric(s, "pcie");
        accel::Gpu gpu(s, "k40m", fabric);

        core::Runtime rt(s, bf.lynxRuntimeConfig());
        auto &accel = rt.addAccelerator("k40m", gpu.memory(),
                                        rdma::RdmaPathModel{});
        core::ServiceConfig scfg;
        scfg.name = "echo";
        scfg.port = 7000;
        auto &svc = rt.addService(scfg);
        auto queues = rt.makeAccelQueues(svc, accel);

        auto hasPrefix = [&](const std::string &prefix) {
            for (const auto &[path, stats] : s.metrics().entries()) {
                if (path.rfind(prefix, 0) == 0)
                    return true;
            }
            return false;
        };
        EXPECT_TRUE(hasPrefix("net.nic."));
        EXPECT_TRUE(hasPrefix("net.fabric"));
        EXPECT_TRUE(hasPrefix("rdma.qp."));
        EXPECT_TRUE(hasPrefix("lynx.mq."));
        EXPECT_TRUE(hasPrefix("lynx.fwd."));
        EXPECT_TRUE(hasPrefix("lynx.dispatch.echo"));
        EXPECT_TRUE(hasPrefix("lynx.runtime"));
        EXPECT_TRUE(hasPrefix("gio."));
    }
    ASSERT_EQ(s.metrics().size(), 1u)
        << "a component forgot to deregister its StatSet";
    EXPECT_EQ(s.metrics().entries().front().first, "sim.engine");
}
