/**
 * @file
 * Randomized differential testing: generate random unification
 * problems, arithmetic chains and small nondeterministic databases;
 * the KCM simulator and the reference interpreter must agree on every
 * one of them. Each case is also run on both simulator execution
 * cores (predecoded fast path and decode-per-step oracle), which must
 * agree bit-for-bit on solutions, cycles and inferences.
 */

#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "baseline/interp.hh"
#include "core/machine.hh"
#include "core/snapshot.hh"
#include "kcm/kcm.hh"
#include "library_parse_check.hh"

using namespace kcm;

namespace
{

/** Random ground-ish term generator. */
class TermGen
{
  public:
    explicit TermGen(unsigned seed) : rng_(seed) {}

    /** A term over a small signature; depth-bounded. */
    std::string
    term(int depth, int num_vars)
    {
        int pick = int(dist_(rng_) % (depth > 0 ? 6 : 3));
        switch (pick) {
          case 0:
            return std::to_string(dist_(rng_) % 10);
          case 1: {
            static const char *atoms[] = {"a", "b", "c", "foo"};
            return atoms[dist_(rng_) % 4];
          }
          case 2:
            if (num_vars > 0)
                return "V" + std::to_string(dist_(rng_) % num_vars);
            return "z";
          case 3: {
            std::ostringstream os;
            os << "f(" << term(depth - 1, num_vars) << ","
               << term(depth - 1, num_vars) << ")";
            return os.str();
          }
          case 4: {
            std::ostringstream os;
            os << "g(" << term(depth - 1, num_vars) << ")";
            return os.str();
          }
          default: {
            std::ostringstream os;
            os << "[" << term(depth - 1, num_vars) << ","
               << term(depth - 1, num_vars) << "]";
            return os.str();
          }
        }
    }

    unsigned
    pick(unsigned bound)
    {
        return dist_(rng_) % bound;
    }

  private:
    std::mt19937 rng_;
    std::uniform_int_distribution<unsigned> dist_;
};

void
compareOnce(const std::string &program, const std::string &goal,
            const KcmOptions &base_options = {})
{
    expectSharedLibraryParseExact(program, goal, base_options.compiler);

    KcmOptions options = base_options;
    options.maxSolutions = 8;
    options.machine.fastDispatch = true;
    KcmSystem machine_system(options);
    if (!program.empty())
        machine_system.consult(program);
    QueryResult machine_result = machine_system.query(goal);

    // The same problem on the decode-per-step oracle core: everything
    // simulated must be bit-identical to the fast path.
    KcmOptions oracle_options = options;
    oracle_options.machine.fastDispatch = false;
    KcmSystem oracle_system(oracle_options);
    if (!program.empty())
        oracle_system.consult(program);
    QueryResult oracle_result = oracle_system.query(goal);

    ASSERT_EQ(machine_result.success, oracle_result.success)
        << "fast/oracle cores disagree on success of: " << goal
        << "\nprogram:\n" << program;
    ASSERT_EQ(machine_result.solutions.size(),
              oracle_result.solutions.size())
        << "fast/oracle solution counts differ for: " << goal
        << "\nprogram:\n" << program;
    for (size_t i = 0; i < machine_result.solutions.size(); ++i) {
        ASSERT_EQ(machine_result.solutions[i].toString(),
                  oracle_result.solutions[i].toString())
            << "fast/oracle solution " << i << " differs for: " << goal;
    }
    ASSERT_EQ(machine_result.cycles, oracle_result.cycles)
        << "fast/oracle cycle counts differ for: " << goal
        << "\nprogram:\n" << program;
    ASSERT_EQ(machine_result.inferences, oracle_result.inferences)
        << "fast/oracle inference counts differ for: " << goal
        << "\nprogram:\n" << program;

    // Trapping inputs are kept, not discarded: both cores must trap
    // identically — same kind, same faulting PC, same cycle.
    ASSERT_EQ(machine_result.trapped, oracle_result.trapped)
        << "fast/oracle cores disagree on trapping for: " << goal
        << "\nfast: " << machine_result.error
        << "\noracle: " << oracle_result.error;
    if (machine_result.trapped) {
        ASSERT_EQ(machine_result.trap.kind, oracle_result.trap.kind)
            << "fast: " << machine_result.error
            << "\noracle: " << oracle_result.error;
        ASSERT_EQ(machine_result.trap.pc, oracle_result.trap.pc)
            << goal;
        ASSERT_EQ(machine_result.trap.cycle, oracle_result.trap.cycle)
            << goal;
        ASSERT_EQ(machine_result.trap.instructions,
                  oracle_result.trap.instructions)
            << goal;
        // The baseline interpreter has no machine-trap semantics (no
        // cycle budget, no zones), so resource traps stop here — but
        // an uncaught throw/1 is a language-level outcome the
        // baseline models too, so that comparison continues below.
        if (machine_result.trap.kind != TrapKind::UnhandledException)
            return;
    }

    baseline::Interpreter interp;
    if (!program.empty())
        interp.consult(program);
    baseline::InterpResult interp_result = interp.query(goal, 8);

    ASSERT_EQ(machine_result.success, interp_result.success)
        << "goal: " << goal << "\nprogram:\n" << program;
    ASSERT_EQ(machine_result.solutions.size(),
              interp_result.solutions.size())
        << "goal: " << goal << "\nprogram:\n" << program;
    for (size_t i = 0; i < machine_result.solutions.size(); ++i) {
        ASSERT_EQ(machine_result.solutions[i].toString(),
                  interp_result.solutions[i].toString())
            << "machine/baseline solution " << i << " differs for: "
            << goal << "\nprogram:\n" << program;
    }
    ASSERT_EQ(machine_result.error, interp_result.error)
        << "machine/baseline uncaught-ball terms differ for: " << goal
        << "\nprogram:\n" << program;
}

} // namespace

class FuzzUnify : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FuzzUnify, RandomUnificationProblems)
{
    TermGen gen(GetParam());
    for (int i = 0; i < 12; ++i) {
        // The right-hand side is ground: both engines are
        // occurs-check-free, so var-on-both-sides problems can create
        // cyclic terms and diverge.
        std::string lhs = gen.term(3, 3);
        std::string rhs = gen.term(3, 0);
        compareOnce("", "V0 = V0, " + lhs + " = " + rhs);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzUnify, ::testing::Range(1u, 9u));

class FuzzDatabase : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FuzzDatabase, RandomFactsAndQueries)
{
    TermGen gen(GetParam() * 977);
    // A small random database of p/2 facts plus one rule.
    std::ostringstream program;
    for (int i = 0; i < 6; ++i) {
        program << "p(" << gen.term(2, 0) << ", " << gen.term(2, 0)
                << ").\n";
    }
    program << "q(X, Y) :- p(X, Y).\n";
    program << "q(X, X) :- p(X, _).\n";

    for (int i = 0; i < 8; ++i) {
        std::string goal = "q(" + gen.term(2, 2) + ", V0)";
        compareOnce(program.str(), goal);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDatabase, ::testing::Range(1u, 65u));

class FuzzArith : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FuzzArith, RandomArithmeticChains)
{
    TermGen gen(GetParam() * 7919);
    static const char *ops[] = {"+", "-", "*", "//", "mod"};
    for (int i = 0; i < 20; ++i) {
        // Build X is ((a op b) op c) with small constants; division by
        // zero legitimately fails on both engines.
        std::ostringstream goal;
        goal << "X is ((" << 1 + gen.pick(9) << " " << ops[gen.pick(5)]
             << " " << 1 + gen.pick(9) << ") " << ops[gen.pick(5)] << " "
             << 1 + gen.pick(9) << ")";
        compareOnce("", goal.str());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzArith, ::testing::Range(1u, 7u));

class FuzzControl : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FuzzControl, RandomConjunctionsWithCutAndDisjunction)
{
    TermGen gen(GetParam() * 31337);
    const char *database =
        "p(1). p(2). p(3).\n"
        "r(2). r(3).\n";
    for (int i = 0; i < 12; ++i) {
        std::ostringstream goal;
        goal << "p(V0)";
        if (gen.pick(2))
            goal << ", V0 > " << gen.pick(3);
        switch (gen.pick(3)) {
          case 0:
            goal << ", !";
            break;
          case 1:
            goal << ", (r(V0) ; V0 = 1)";
            break;
          default:
            goal << ", \\+ r(V0)";
            break;
        }
        compareOnce(database, goal.str());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzControl, ::testing::Range(1u, 7u));

class FuzzResource : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FuzzResource, TinyBudgetsAndQuotasTrapIdentically)
{
    TermGen gen(GetParam() * 104729);
    const char *database =
        "mklist(0, []).\n"
        "mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).\n"
        "len([], 0).\n"
        "len([_|T], N) :- len(T, M), N is M + 1.\n";
    for (int i = 0; i < 6; ++i) {
        // A random mix of tiny cycle budgets and heap quotas: many of
        // these runs end in abort or stack_overflow traps, the rest
        // complete. Either way both cores must agree exactly.
        KcmOptions options;
        options.machine.governor.cycleBudget = 500 + gen.pick(4000);
        if (gen.pick(2))
            options.machine.governor.globalQuotaWords =
                32 + gen.pick(64);
        if (gen.pick(2))
            options.machine.governor.growStacks = false;
        std::string goal = "mklist(" + std::to_string(10 + gen.pick(60)) +
                           ", L), len(L, N)";
        compareOnce(database, goal, options);
    }
}

TEST_P(FuzzResource, InjectedFaultsTrapIdentically)
{
    TermGen gen(GetParam() * 130363);
    const char *database =
        "mklist(0, []).\n"
        "mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).\n";
    for (int i = 0; i < 6; ++i) {
        // Arm a page fault at a random cycle; queries that finish
        // earlier run clean, the rest take a PageFault trap — at the
        // identical point on both cores.
        KcmOptions options;
        FaultAction fault;
        fault.cycle = gen.pick(3000);
        fault.kind = FaultKind::InjectPageFault;
        options.machine.faultPlan.actions.push_back(fault);
        std::string goal =
            "mklist(" + std::to_string(5 + gen.pick(40)) + ", L)";
        compareOnce(database, goal, options);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzResource, ::testing::Range(1u, 7u));

class FuzzExceptions : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FuzzExceptions, CatchThrowAgreesEverywhere)
{
    TermGen gen(GetParam() * 179426549);
    // All throws happen inside the protected goal and all balls are
    // ground: cutting away a catch marker and then throwing is the
    // one scoping corner where the machine (choicepoint marker) and
    // the baseline (C++ try block) legitimately differ.
    const char *database =
        "p(1). p(2). p(3).\n"
        "boom(N) :- p(X), X >= N, throw(ball(X)).\n"
        "boom(_).\n"
        "safe(N, R) :- catch(boom(N), ball(V), R = caught(V)).\n"
        "safe(_, none).\n";
    for (int i = 0; i < 10; ++i) {
        unsigned k = 1 + gen.pick(5); // 4,5 never throw: boom/1 falls through
        std::ostringstream goal;
        switch (gen.pick(6)) {
          case 0: // transparent barrier: catcher never matches the ball
            goal << "catch(p(V0), nomatch, V1 = no)";
            break;
          case 1: // plain delivery (or clean fall-through for big k)
            goal << "catch(boom(" << k << "), ball(V0), V1 = got(V0))";
            break;
          case 2: // inner catcher mismatches, outer receives the ball
            goal << "catch(catch(boom(" << k << "), wrong(V0), V1 = inner),"
                 << " ball(V2), V3 = outer)";
            break;
          case 3: // throw of a freshly built compound, caught directly
            goal << "catch(throw(t(" << k << ")), t(V0), p(V0))";
            break;
          case 4: // cut inside the protected goal, then maybe a throw
            goal << "catch((p(V0), !, boom(" << k << ")), ball(V1),"
                 << " V2 = cut_case)";
            break;
          default: // user-level default via two safe/2 clauses
            goal << "safe(" << k << ", V0)";
            break;
        }
        if (gen.pick(2))
            goal << ", p(V4)"; // backtrack through the used-up barrier
        compareOnce(database, goal.str());
    }
}

TEST_P(FuzzExceptions, UncaughtBallsAgreeEverywhere)
{
    TermGen gen(GetParam() * 15485863);
    const char *database = "p(1). p(2). p(3).\n";
    for (int i = 0; i < 8; ++i) {
        // Ground ball, no catcher anywhere (or a never-matching one):
        // both cores trap UnhandledException at the identical cycle
        // and the baseline formats the identical ball term.
        std::string ball = gen.term(2, 0);
        std::ostringstream goal;
        if (gen.pick(2))
            goal << "p(V0), throw(" << ball << ")";
        else
            goal << "catch(throw(" << ball << "), nomatch, V0 = no)";
        compareOnce(database, goal.str());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzExceptions, ::testing::Range(1u, 7u));

class FuzzListWalk : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FuzzListWalk, ListWalkersAgreeEverywhere)
{
    TermGen gen(GetParam() * 86028121);
    // List walkers over random data: get/unify/put/execute chains over
    // list cells, last calls and member/2 backtracking, held to the
    // oracle core and the baseline.
    const char *database =
        "rev([], A, A).\n"
        "rev([H|T], A, R) :- rev(T, [H|A], R).\n"
        "walk([]).\n"
        "walk([_|T]) :- walk(T).\n"
        "tree(leaf).\n"
        "tree(node(L, _, R)) :- tree(L), tree(R).\n"
        "member(X, [X|_]).\n"
        "member(X, [_|T]) :- member(X, T).\n";
    for (int i = 0; i < 6; ++i) {
        std::ostringstream list;
        list << "[";
        unsigned n = 2 + gen.pick(6);
        for (unsigned j = 0; j < n; ++j)
            list << (j ? "," : "") << gen.term(2, 0);
        list << "]";

        std::ostringstream goal;
        switch (gen.pick(3)) {
          case 0:
            goal << "rev(" << list.str() << ", [], V0), walk(V0)";
            break;
          case 1:
            goal << "member(V0, " << list.str() << ")";
            break;
          default:
            goal << "rev(" << list.str()
                 << ", [], V0), member(" << gen.term(2, 0) << ", V0)";
            break;
        }
        compareOnce(database, goal.str());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzListWalk, ::testing::Range(1u, 7u));

class FuzzSnapshot : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FuzzSnapshot, CorruptedSnapshotsRejectedWithoutPartialMutation)
{
    // Every corruption of a snapshot container — truncation anywhere,
    // any byte changed anywhere (magic, section table, payload) — must
    // be rejected with a diagnostic, and a rejected restore must leave
    // the target machine untouched: restoreSnapshot validates the whole
    // container (lengths + per-section checksums) before mutating
    // anything.
    TermGen gen(GetParam() * 2654435761u);

    KcmSystem host;
    host.consult("mklist(0, []).\n"
                 "mklist(N, [N|T]) :- N > 0, M is N - 1, "
                 "mklist(M, T).\n");
    CodeImage image = host.compileOnly("mklist(120, L)");

    MachineConfig config;
    config.governor.cycleBudget = 1500;
    Machine source(config);
    source.load(image);
    ASSERT_EQ(source.run(), RunStatus::Trapped)
        << "test premise: the budget must interrupt mid-build";
    Snapshot snap = takeSnapshot(source);
    ASSERT_GT(snap.bytes.size(), 64u);

    // Reference continuation of the pristine snapshot.
    Machine reference(config);
    restoreSnapshot(reference, snap);
    reference.setCycleBudget(0);
    ASSERT_EQ(reference.resume(), RunStatus::SolutionFound);
    std::string want = reference.lastSolution().toString();

    // The victim holds live mid-run state; every corrupted restore
    // against it must throw without mutating it.
    Machine victim(config);
    restoreSnapshot(victim, snap);
    // The u32 section count after the 8-byte magic, including the
    // retired three-section layout.
    for (uint8_t count : {uint8_t(3), uint8_t(5)}) {
        Snapshot bad = snap;
        bad.bytes[8] = count;
        EXPECT_THROW(restoreSnapshot(victim, bad), FatalError)
            << "section count " << int(count) << " was not rejected";
    }
    for (int i = 0; i < 24; ++i) {
        Snapshot bad = snap;
        if (gen.pick(3) == 0) {
            bad.bytes.resize(gen.pick(unsigned(bad.bytes.size())));
        } else {
            size_t pos = gen.pick(unsigned(bad.bytes.size()));
            bad.bytes[pos] ^= uint8_t(1 + gen.pick(255));
        }
        EXPECT_THROW(restoreSnapshot(victim, bad), FatalError)
            << "corruption " << i << " was not rejected";
    }

    // No partial mutation: the victim continues bit-identically.
    victim.setCycleBudget(0);
    ASSERT_EQ(victim.resume(), RunStatus::SolutionFound);
    EXPECT_EQ(victim.lastSolution().toString(), want);
    EXPECT_EQ(victim.cycles(), reference.cycles());
    EXPECT_EQ(victim.instructions(), reference.instructions());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSnapshot, ::testing::Range(1u, 7u));

class FuzzDynamicDb : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FuzzDynamicDb, RandomAssertRetractChainsAgreeEverywhere)
{
    TermGen gen(GetParam() * 52368761);
    // Random update/query chains over two dynamic predicates. Heads
    // stay on the fixed names d/2 and e/1 so every step compiles to
    // the dynamic-dispatch firmware; failing steps are wrapped in
    // (G ; true) so a chain never dies at its first miss and later
    // steps still run against the mutated store.
    const char *database = ":- dynamic(d/2).\n:- dynamic(e/1).\n";
    for (int i = 0; i < 6; ++i) {
        std::ostringstream goal;
        int steps = 3 + gen.pick(5);
        for (int s = 0; s < steps; ++s) {
            if (s > 0)
                goal << ", ";
            switch (gen.pick(7)) {
              case 0:
                goal << "assertz(d(" << gen.term(2, 0) << ", "
                     << gen.term(2, 0) << "))";
                break;
              case 1:
                goal << "asserta(d(" << gen.term(2, 0) << ", "
                     << gen.term(2, 0) << "))";
                break;
              case 2:
                goal << "( retract(d(" << gen.term(2, 1) << ", _))"
                     << " ; true )";
                break;
              case 3:
                goal << "( d(" << gen.term(2, 1) << ", V0) ; true )";
                break;
              case 4:
                goal << "assertz(e(" << gen.term(2, 0) << "))";
                break;
              case 5:
                goal << "( retract(e(" << gen.term(1, 1) << ")) ; true )";
                break;
              default:
                goal << "( e(" << gen.term(1, 1) << ") ; true )";
                break;
            }
        }
        // A final open query backtracks through whatever survived.
        goal << ", ( d(V1, V2) ; e(V1) ; true )";
        compareOnce(database, goal.str());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDynamicDb, ::testing::Range(1u, 65u));
