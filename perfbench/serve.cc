// The serving process: builds the shared corpus (and, for store_cold, writes
// it to a store file and reopens it through StoreBackedIndexSource with
// small caches), then runs server::Server with the daemon's defaults until
// SIGTERM. Prints its set-up phases, then "listening on port N".
#include <sys/prctl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include "common/timer.h"
#include "perfbench/bench_env.h"
#include "perfbench/serving.h"
#include "server/server.h"

namespace xrefine::perfbench {

namespace {

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "serve: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

}  // namespace

int ServeMain(const std::string& store_path) {
  // Never outlive the generator that started us.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (::getppid() == 1) return 1;
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGTERM);
  sigaddset(&shutdown_signals, SIGINT);
  if (pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr) != 0) return 1;

  SetupPhases phases;
  Corpus corpus = BuildCorpus(&phases.generate_s, &phases.index_build_s);
  const index::IndexSource* source = corpus.index.get();

  StoreSource store;
  if (!store_path.empty()) {
    Timer save;
    Status st = WriteStore(*corpus.index, store_path);
    if (!st.ok()) return Fail("write store", st);
    phases.save_s = save.ElapsedSeconds();
    // Serve from the store alone, as a store-backed daemon would.
    corpus.index.reset();
    corpus.doc.reset();
    Timer open;
    auto opened = OpenStoreSource(store_path);
    if (!opened.ok()) return Fail("open store", opened.status());
    store = std::move(opened).value();
    source = store.source.get();
    phases.open_s = open.ElapsedSeconds();
  }

  text::Lexicon lexicon = text::Lexicon::BuiltIn();
  core::XRefineOptions engine_options = ServingEngineOptions();
  core::XRefine primary(source, &lexicon, engine_options);
  core::XRefine degraded(source, &lexicon,
                         server::MakeDegradedOptions(engine_options));
  server::Server server(&primary, &degraded, server::ServerOptions{});
  Status st = server.Start();
  if (!st.ok()) return Fail("start server", st);

  std::printf("%s\nlistening on port %u\n", FormatSetupPhases(phases).c_str(),
              server.port());
  std::fflush(stdout);

  int sig = 0;
  while (sigwait(&shutdown_signals, &sig) != 0) {
  }
  server.Stop();
  return 0;
}

}  // namespace xrefine::perfbench
