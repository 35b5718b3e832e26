// Closed batches on the service (src/api/scheduler_service.*): a batch is
// submit(requests) followed by wait() on each ticket, run on the service's
// own workers. Pins ticket order, byte identity with serial registry solves
// at any thread count, per-ticket failure isolation, worker provenance,
// dispatch order, drain, dedup and deadlines inside one batch, and shutdown
// with queued work; plus the api/outcome_json serialization the byte
// compares use.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/outcome_json.hpp"
#include "api/scheduler_service.hpp"
#include "support/cancellation.hpp"
#include "support/mutex.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

InstanceHandle small_handle(std::uint64_t seed, int tasks = 16, int machines = 8) {
  GeneratorOptions options;
  options.tasks = tasks;
  options.machines = machines;
  const auto families = all_workload_families();
  return InstanceHandle::intern(generate_instance(families[seed % families.size()], options, seed));
}

/// A mixed batch over distinct instances: families rotate with the seed,
/// solvers with the index.
std::vector<SolveRequest> mixed_requests(std::size_t count) {
  const std::vector<std::pair<std::string, std::string>> configs{
      {"mrt", ""},
      {"two_phase", "rigid=ffdh"},
      {"naive", "policy=lpt-seq"},
      {"two_shelves_32", ""},
  };
  std::vector<SolveRequest> requests;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& [solver, spec] = configs[i % configs.size()];
    requests.emplace_back(solver, SolverOptions::from_string(spec), small_handle(100 + i));
  }
  return requests;
}

/// The closed-batch idiom: submit the whole vector, wait on every ticket.
std::vector<SolveOutcome> run_batch(SchedulerService& service,
                                    std::vector<SolveRequest> requests) {
  const auto tickets = service.submit(std::move(requests));
  std::vector<SolveOutcome> outcomes;
  outcomes.reserve(tickets.size());
  for (const auto ticket : tickets) outcomes.push_back(service.wait(ticket));
  return outcomes;
}

/// Serial reference: every request solved on the calling thread through the
/// global registry, ticket = submission index.
std::vector<SolveOutcome> serial_outcomes(const std::vector<SolveRequest>& requests) {
  std::vector<SolveOutcome> outcomes(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    outcomes[i].ticket = i;
    outcomes[i].status = SolveStatus::kOk;
    outcomes[i].result = SolverRegistry::global().solve(requests[i]);
  }
  return outcomes;
}

OutcomeJsonOptions payload_only() {
  OutcomeJsonOptions json;
  json.include_timing = false;
  json.include_schedules = true;
  return json;
}

Schedule sequential_schedule(const Instance& instance) {
  Schedule schedule(instance.machines(), instance.size());
  double t = 0.0;
  for (int i = 0; i < instance.size(); ++i) {
    schedule.assign(i, t, instance.task(i).time(1), 0, 1);
    t += instance.task(i).time(1);
  }
  return schedule;
}

/// One-shot latch for the blocking test solver.
struct Gate {
  Mutex mutex;
  CondVar cv;
  bool entered MALSCHED_GUARDED_BY(mutex){false};
  bool open MALSCHED_GUARDED_BY(mutex){false};

  void enter_and_wait() MALSCHED_EXCLUDES(mutex) {
    const LockGuard lock(mutex);
    entered = true;
    cv.notify_all();
    while (!open) cv.wait(mutex);
  }
  void wait_entered() MALSCHED_EXCLUDES(mutex) {
    const LockGuard lock(mutex);
    while (!entered) cv.wait(mutex);
  }
  void release() MALSCHED_EXCLUDES(mutex) {
    {
      const LockGuard lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
};

/// "seq" (counts its solves), "boom" (always throws), and "gate" (blocks
/// until the test releases it).
SolverRegistry test_registry(const std::shared_ptr<Gate>& gate,
                             const std::shared_ptr<std::atomic<int>>& seq_solves) {
  SolverRegistry registry;
  registry.add("seq", "sequential on processor 0",
               [seq_solves](const Instance& instance, const SolverOptions&) {
                 ++*seq_solves;
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  registry.add("boom", "always throws", [](const Instance&, const SolverOptions&) -> SolverResult {
    throw std::runtime_error("boom: simulated solver failure");
  });
  registry.add("gate", "blocks until the test releases it",
               [gate](const Instance& instance, const SolverOptions&) {
                 gate->enter_and_wait();
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  return registry;
}

// ------------------------------------------------------------ closed batches

TEST(ClosedBatch, EmptyBatchIsANoop) {
  SchedulerService service{ServiceConfig{}};
  EXPECT_TRUE(service.submit(std::vector<SolveRequest>{}).empty());
  EXPECT_EQ(service.stats().submitted, 0u);
}

TEST(ClosedBatch, OutcomesComeBackInTicketOrderThroughTheGlobalRegistry) {
  const auto requests = mixed_requests(12);
  ServiceConfig config;
  config.threads = 4;
  SchedulerService service(config);
  const auto tickets = service.submit(requests);
  ASSERT_EQ(tickets.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(tickets[i].id, i) << "tickets are dense in submission order";
    const auto outcome = service.wait(tickets[i]);
    EXPECT_EQ(outcome.ticket, i);
    ASSERT_EQ(outcome.status, SolveStatus::kOk) << outcome.error.detail;
    EXPECT_EQ(outcome.result->solver, requests[i].solver);
  }
}

// The acceptance property of the one execution engine: a 64-request batch
// serializes byte-identically (schedules included, timing excluded) to
// serial registry solves at 1, 2, and 8 workers.
TEST(ClosedBatch, ByteIdenticalToSerialSolvesAtOneTwoAndEightThreads) {
  const auto requests = mixed_requests(64);
  const auto json = payload_only();
  const std::string reference = outcomes_json(serial_outcomes(requests), json);
  for (const unsigned threads : {1u, 2u, 8u}) {
    ServiceConfig config;
    config.threads = threads;
    SchedulerService service(config);
    EXPECT_EQ(service.threads(), threads);
    EXPECT_EQ(outcomes_json(run_batch(service, requests), json), reference)
        << "outcomes depend on the thread count at " << threads;
  }
}

TEST(ClosedBatch, OversubscribedServiceStaysDeterministic) {
  // Far more workers than cores and tiny instances: maximal dispatch churn.
  std::vector<SolveRequest> requests;
  for (std::size_t i = 0; i < 100; ++i) {
    requests.emplace_back("naive", SolverOptions::from_string("policy=lpt-seq"),
                          small_handle(i, /*tasks=*/6, /*machines=*/4));
  }
  ServiceConfig config;
  config.threads = 32;
  SchedulerService service(config);
  const auto json = payload_only();
  EXPECT_EQ(outcomes_json(run_batch(service, requests), json),
            outcomes_json(serial_outcomes(requests), json));
}

TEST(ClosedBatch, EdfDisciplineReordersDispatchButNotOutcomes) {
  // Budgets out of submission order: edf dispatches them differently than
  // fifo would, and the outcome bytes must not notice.
  auto requests = mixed_requests(16);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].budget_seconds = 600.0 - 10.0 * static_cast<double>((i * 7) % 16);
  }
  ServiceConfig config;
  config.threads = 2;
  config.queue_discipline = "edf";
  SchedulerService service(config);
  const auto json = payload_only();
  EXPECT_EQ(outcomes_json(run_batch(service, requests), json),
            outcomes_json(serial_outcomes(requests), json));
}

TEST(ClosedBatch, ThrowingSolverFailsOnlyItsOwnTicket) {
  const auto gate = std::make_shared<Gate>();
  const auto solves = std::make_shared<std::atomic<int>>(0);
  const auto registry = test_registry(gate, solves);
  ServiceConfig config;
  config.threads = 4;
  config.registry = &registry;
  SchedulerService service(config);
  std::vector<SolveRequest> requests;
  for (std::size_t i = 0; i < 10; ++i) {
    requests.emplace_back(i % 2 == 0 ? "seq" : "boom", SolverOptions{}, small_handle(i));
  }
  const auto outcomes = run_batch(service, requests);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_EQ(outcomes[i].status, SolveStatus::kOk) << outcomes[i].error.detail;
      EXPECT_TRUE(outcomes[i].result->schedule.complete());
    } else {
      EXPECT_EQ(outcomes[i].status, SolveStatus::kError);
      EXPECT_EQ(outcomes[i].error.code, SolveErrorCode::kSolverFailure);
      EXPECT_NE(outcomes[i].error.detail.find("boom"), std::string::npos);
      EXPECT_FALSE(outcomes[i].result.has_value());
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.failed, 5u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(ClosedBatch, UnknownSolverFailsOnlyItsOwnTicket) {
  std::vector<SolveRequest> requests;
  requests.emplace_back("mrt", SolverOptions{}, small_handle(1));
  requests.emplace_back("no-such-solver", SolverOptions{}, small_handle(2));
  requests.emplace_back("naive", SolverOptions::from_string("policy=gang"), small_handle(3));
  SchedulerService service{ServiceConfig{}};
  const auto outcomes = run_batch(service, requests);
  EXPECT_EQ(outcomes[0].status, SolveStatus::kOk);
  EXPECT_EQ(outcomes[1].status, SolveStatus::kError);
  EXPECT_EQ(outcomes[1].error.code, SolveErrorCode::kInvalidOption);
  EXPECT_NE(outcomes[1].error.detail.find("unknown solver"), std::string::npos);
  EXPECT_EQ(outcomes[2].status, SolveStatus::kOk);
}

TEST(ClosedBatch, EmptyHandleRejectsTheWholeBatchUpFront) {
  std::vector<SolveRequest> requests = mixed_requests(2);
  requests.emplace_back();  // default = empty handle
  SchedulerService service{ServiceConfig{}};
  EXPECT_THROW(static_cast<void>(service.submit(requests)), std::invalid_argument);
  EXPECT_EQ(service.stats().submitted, 0u) << "no ticket of a rejected batch may be issued";
}

TEST(ClosedBatch, WorkerIsInRangeWhenDispatchedAndMinusOneOnSubmitTimeHits) {
  for (const unsigned threads : {1u, 3u}) {
    std::vector<SolveRequest> requests;
    for (std::size_t i = 0; i < 24; ++i) {
      requests.emplace_back("naive", SolverOptions::from_string("policy=lpt-seq"),
                            small_handle(300 + i));
    }
    ServiceConfig config;
    config.threads = threads;
    SchedulerService service(config);
    for (const auto& outcome : run_batch(service, requests)) {
      EXPECT_FALSE(outcome.cache_hit);
      EXPECT_GE(outcome.worker, 0);
      EXPECT_LT(outcome.worker, static_cast<int>(threads));
    }
    // The same batch again: every request is a submit-time cache hit, served
    // on the submitting thread without waking a worker.
    for (const auto& outcome : run_batch(service, requests)) {
      EXPECT_TRUE(outcome.cache_hit);
      EXPECT_EQ(outcome.worker, -1);
    }
  }
}

TEST(ClosedBatch, CancellingEveryQueuedTicketSkipsEverySolve) {
  const auto gate = std::make_shared<Gate>();
  const auto solves = std::make_shared<std::atomic<int>>(0);
  const auto registry = test_registry(gate, solves);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  SchedulerService service(config);
  const auto blocker = service.submit({"gate", {}, small_handle(40)});
  gate->wait_entered();
  std::vector<SolveRequest> requests;
  for (std::size_t i = 0; i < 6; ++i) {
    requests.emplace_back("seq", SolverOptions{}, small_handle(41 + i));
  }
  const auto tickets = service.submit(requests);
  for (const auto ticket : tickets) EXPECT_TRUE(service.cancel(ticket));
  gate->release();
  EXPECT_EQ(service.wait(blocker).status, SolveStatus::kOk);
  for (const auto ticket : tickets) {
    const auto outcome = service.wait(ticket);
    EXPECT_EQ(outcome.status, SolveStatus::kCancelled);
    EXPECT_EQ(outcome.error.code, SolveErrorCode::kCancelled);
  }
  service.drain();
  EXPECT_EQ(solves->load(), 0);
}

TEST(ClosedBatch, ShutdownTurnsQueuedJobsIntoShutdownOutcomesWithoutSolving) {
  const auto gate = std::make_shared<Gate>();
  const auto solves = std::make_shared<std::atomic<int>>(0);
  const auto registry = test_registry(gate, solves);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  SchedulerService service(config);
  const auto running = service.submit({"gate", {}, small_handle(50)});
  gate->wait_entered();
  std::vector<SolveRequest> requests;
  for (std::size_t i = 0; i < 5; ++i) {
    requests.emplace_back("seq", SolverOptions{}, small_handle(51 + i));
  }
  const auto queued = service.submit(requests);

  // Hold the gate shut until shutdown has visibly turned every queued job
  // terminal, so none of them can reach the worker first.
  std::thread stopper([&service] { service.shutdown(); });
  while (!service.poll(queued.back()).has_value()) std::this_thread::yield();
  gate->release();
  stopper.join();

  EXPECT_EQ(service.wait(running).status, SolveStatus::kOk);
  for (const auto ticket : queued) {
    const auto outcome = service.wait(ticket);
    EXPECT_EQ(outcome.status, SolveStatus::kCancelled);
    EXPECT_EQ(outcome.error.code, SolveErrorCode::kShutdown);
    EXPECT_EQ(outcome.worker, -1);
  }
  EXPECT_EQ(solves->load(), 0) << "a job queued at shutdown must never start its solve";
}

TEST(ClosedBatch, SingleWorkerStartsSolvesInSubmissionOrder) {
  // One worker under the default fifo discipline: solves start in ticket
  // order. Each request's task count identifies it to the logging solver.
  const auto log = std::make_shared<Mutex>();
  const auto started = std::make_shared<std::vector<int>>();
  SolverRegistry registry;
  registry.add("log", "records the task count of every solve it starts",
               [log, started](const Instance& instance, const SolverOptions&) {
                 {
                   const LockGuard lock(*log);
                   started->push_back(instance.size());
                 }
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  SchedulerService service(config);
  std::vector<SolveRequest> requests;
  std::vector<int> expected;
  for (int i = 0; i < 8; ++i) {
    requests.emplace_back("log", SolverOptions{}, small_handle(200 + i, /*tasks=*/4 + i));
    expected.push_back(4 + i);
  }
  for (const auto& outcome : run_batch(service, requests)) {
    EXPECT_EQ(outcome.status, SolveStatus::kOk) << outcome.error.detail;
    EXPECT_EQ(outcome.worker, 0);
  }
  const LockGuard lock(*log);
  EXPECT_EQ(*started, expected);
}

TEST(ClosedBatch, DrainReturnsOnlyWhenEveryTicketIsTerminal) {
  ServiceConfig config;
  config.threads = 2;
  SchedulerService service(config);
  const auto tickets = service.submit(mixed_requests(16));
  service.drain();
  for (const auto ticket : tickets) {
    const auto outcome = service.poll(ticket);
    ASSERT_TRUE(outcome.has_value()) << "ticket " << ticket.id << " still pending after drain()";
    EXPECT_EQ(outcome->status, SolveStatus::kOk) << outcome->error.detail;
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, tickets.size());
  EXPECT_EQ(stats.completed, tickets.size());
  EXPECT_EQ(stats.delivered, tickets.size());
}

TEST(ClosedBatch, SubmitAfterShutdownThrowsAndIssuesNoTicket) {
  SchedulerService service{ServiceConfig{}};
  const auto before = run_batch(service, mixed_requests(2));
  service.shutdown();
  EXPECT_THROW(static_cast<void>(service.submit(mixed_requests(3))), std::runtime_error);
  EXPECT_THROW(static_cast<void>(service.submit(SolveRequest{"mrt", {}, small_handle(7)})),
               std::runtime_error);
  EXPECT_EQ(service.stats().submitted, before.size());
  // Outcomes finished before shutdown stay readable.
  for (std::size_t i = 0; i < before.size(); ++i) {
    const auto outcome = service.poll(JobTicket{i});
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->status, SolveStatus::kOk);
  }
}

TEST(ClosedBatch, SharedInstanceReachesTheSolverUncopied) {
  GeneratorOptions options;
  options.tasks = 13;
  options.machines = 5;
  const auto shared = std::make_shared<const Instance>(
      generate_instance(WorkloadFamily::kUniform, options, /*seed=*/4242));
  const auto seen = std::make_shared<std::atomic<const Instance*>>(nullptr);
  SolverRegistry registry;
  registry.add("peek", "records the address of the instance it solves",
               [seen](const Instance& instance, const SolverOptions&) {
                 seen->store(&instance);
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  SchedulerService service(config);
  const auto handle = InstanceHandle::intern(shared);
  EXPECT_EQ(handle.shared().get(), shared.get());
  const auto outcomes = run_batch(service, {SolveRequest{"peek", {}, handle}});
  ASSERT_EQ(outcomes.front().status, SolveStatus::kOk) << outcomes.front().error.detail;
  EXPECT_EQ(seen->load(), shared.get()) << "the service solved a copy of a shared instance";
  EXPECT_THROW(static_cast<void>(InstanceHandle::intern(std::shared_ptr<const Instance>{})),
               std::invalid_argument);
}

TEST(ClosedBatch, DuplicateRequestsInOneBatchShareOneSolve) {
  // The leader holds the gate until every duplicate has joined it, so the
  // coalescing is deterministic: one solve, seven joins, one answer. (A
  // leader that finishes before a duplicate reaches the inflight table
  // lets that duplicate re-solve; the gate rules that window out.)
  const auto gate = std::make_shared<Gate>();
  const auto solves = std::make_shared<std::atomic<int>>(0);
  const auto registry = test_registry(gate, solves);
  ServiceConfig config;
  config.threads = 4;
  config.registry = &registry;
  SchedulerService service(config);
  const std::vector<SolveRequest> requests(8, SolveRequest{"gate", {}, small_handle(60)});
  const auto tickets = service.submit(requests);
  gate->wait_entered();
  for (int waited_ms = 0; service.stats().dedup_joins < requests.size() - 1 && waited_ms < 10'000;
       ++waited_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate->release();
  std::vector<SolveOutcome> outcomes;
  for (const auto ticket : tickets) outcomes.push_back(service.wait(ticket));

  const auto json = payload_only();
  const auto leader = std::find_if(outcomes.begin(), outcomes.end(),
                                   [](const SolveOutcome& o) { return !o.dedup_join; });
  ASSERT_NE(leader, outcomes.end());
  const auto reference = outcomes_json({*leader}, json);
  for (const auto& outcome : outcomes) {
    ASSERT_EQ(outcome.status, SolveStatus::kOk) << outcome.error.detail;
    EXPECT_EQ(outcome.dedup_join, outcome.ticket != leader->ticket);
    EXPECT_EQ(outcome.worker, leader->worker) << "a joiner carries its leader's worker";
    auto as_leader = outcome;
    as_leader.ticket = leader->ticket;
    EXPECT_EQ(outcomes_json({as_leader}, json), reference);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.dedup_joins, requests.size() - 1);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(ClosedBatch, CacheOptOutSolvesEveryDuplicate) {
  const auto gate = std::make_shared<Gate>();
  const auto solves = std::make_shared<std::atomic<int>>(0);
  const auto registry = test_registry(gate, solves);
  ServiceConfig config;
  config.threads = 4;
  config.registry = &registry;
  SchedulerService service(config);
  const std::vector<SolveRequest> requests(
      6, SolveRequest{"seq", {}, small_handle(61), /*consult_cache=*/false});
  for (const auto& outcome : run_batch(service, requests)) {
    EXPECT_EQ(outcome.status, SolveStatus::kOk) << outcome.error.detail;
    EXPECT_FALSE(outcome.cache_hit);
    EXPECT_FALSE(outcome.dedup_join);
  }
  EXPECT_EQ(solves->load(), 6);
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.dedup_joins, 0u);
}

TEST(ClosedBatch, ExpiredDeadlineFailsOnlyItsOwnTicket) {
  const auto gate = std::make_shared<Gate>();
  const auto solves = std::make_shared<std::atomic<int>>(0);
  const auto registry = test_registry(gate, solves);
  ServiceConfig config;
  config.threads = 2;
  config.registry = &registry;
  SchedulerService service(config);
  std::vector<SolveRequest> requests;
  for (std::size_t i = 0; i < 3; ++i) {
    requests.emplace_back("seq", SolverOptions{}, small_handle(70 + i));
  }
  requests[1].deadline_seconds = steady_now_seconds() - 1.0;  // already past
  const auto outcomes = run_batch(service, requests);
  EXPECT_EQ(outcomes[0].status, SolveStatus::kOk) << outcomes[0].error.detail;
  EXPECT_EQ(outcomes[1].status, SolveStatus::kError);
  EXPECT_EQ(outcomes[1].error.code, SolveErrorCode::kDeadlineExceeded);
  EXPECT_EQ(outcomes[2].status, SolveStatus::kOk) << outcomes[2].error.detail;
  EXPECT_EQ(solves->load(), 2) << "an expired request must not start its solve";
  EXPECT_EQ(service.stats().deadline_misses, 1u);
}

TEST(ClosedBatch, StatsTallyEveryTicketOfAMixedBatch) {
  const auto gate = std::make_shared<Gate>();
  const auto solves = std::make_shared<std::atomic<int>>(0);
  const auto registry = test_registry(gate, solves);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  SchedulerService service(config);
  const auto blocker = service.submit({"gate", {}, small_handle(80)});
  gate->wait_entered();
  std::vector<SolveRequest> requests;
  for (std::size_t i = 0; i < 9; ++i) {
    requests.emplace_back(i % 3 == 1 ? "boom" : "seq", SolverOptions{}, small_handle(81 + i));
  }
  const auto tickets = service.submit(requests);
  // Cancel the "seq" requests at i % 3 == 2 while the worker is held.
  for (std::size_t i = 2; i < tickets.size(); i += 3) EXPECT_TRUE(service.cancel(tickets[i]));
  gate->release();
  service.drain();
  EXPECT_EQ(service.wait(blocker).status, SolveStatus::kOk);
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.completed, 4u);  // the blocker and three "seq"
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_EQ(stats.cancelled, 3u);
  EXPECT_EQ(stats.delivered, 10u);
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled, stats.submitted);
  EXPECT_EQ(solves->load(), 3);
}

// --------------------------------------------------------------- outcome_json

TEST(OutcomeJson, SerializesTalliesStatusErrorAndResultFields) {
  const auto gate = std::make_shared<Gate>();
  const auto solves = std::make_shared<std::atomic<int>>(0);
  const auto registry = test_registry(gate, solves);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  SchedulerService service(config);
  std::vector<SolveRequest> requests;
  requests.emplace_back("seq", SolverOptions{}, small_handle(0));
  requests.emplace_back("boom", SolverOptions{}, small_handle(1));
  const auto text = outcomes_json(run_batch(service, requests));
  EXPECT_EQ(text.rfind("{\"ok\":1,\"errors\":1,\"cancelled\":0,\"outcomes\":[", 0), 0u) << text;
  EXPECT_NE(text.find("{\"ticket\":0,\"status\":\"ok\",\"result\":{\"solver\":\"seq\""),
            std::string::npos);
  EXPECT_NE(text.find("\"ticket\":1,\"status\":\"error\",\"error_code\":\"solver_failure\","
                      "\"error\":\"boom: simulated solver failure\""),
            std::string::npos);
  EXPECT_NE(text.find("\"makespan\":"), std::string::npos);
  EXPECT_NE(text.find("\"wall_seconds\":"), std::string::npos);
}

TEST(OutcomeJson, TimingAndScheduleTogglesChangeTheDocument) {
  SchedulerService service{ServiceConfig{}};
  const auto outcomes = run_batch(service, {SolveRequest{"mrt", {}, small_handle(0)}});

  OutcomeJsonOptions bare;
  bare.include_timing = false;
  const auto without_timing = outcomes_json(outcomes, bare);
  EXPECT_EQ(without_timing.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(without_timing.find("\"schedule\""), std::string::npos);

  OutcomeJsonOptions full;
  full.include_schedules = true;
  const auto with_schedules = outcomes_json(outcomes, full);
  EXPECT_NE(with_schedules.find("\"schedule\":[{\"task\":"), std::string::npos);
  EXPECT_NE(with_schedules.find("\"first_proc\":"), std::string::npos);
  EXPECT_NE(with_schedules.find("\"wall_seconds\":"), std::string::npos);
}

}  // namespace
}  // namespace malsched
