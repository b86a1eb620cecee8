#include "workloads.h"

#include <stdexcept>

#include "eval/schemes.h"
#include "llm/scheduler.h"

namespace servebench {

using namespace opal;

namespace {

constexpr std::size_t kVocab = 512;

// prefix-owq: shared documents, each a whole number of 16-position KV blocks
// so a cached document is exactly the prefix a later request can adopt.
constexpr std::size_t kDocuments = 8;
constexpr std::size_t kDocumentTokens = 448;
constexpr std::size_t kQuestionTokens = 16;
// Documents asked about in each round of kRound requests: the four hot
// documents 0-3 every round (three of them twice) and one of the four cold
// documents 4-7 in turn. With a pool of six sequences the hot half stays
// cached while a cold document has mostly been reclaimed by the time it
// comes round again. The order is the same for every seed, so the cache's
// behaviour is too; the seed draws the documents' and questions' tokens.
constexpr std::size_t kRound = kClients;
constexpr std::size_t kRoundDocuments[kRound] = {0, 1, 2, 3, 0, 1, 2, 4};

std::size_t uniform(CounterRng& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.next_u64() % (hi - lo + 1));
}

void append_tokens(CounterRng& rng, std::size_t n,
                   std::vector<std::size_t>& out) {
  for (std::size_t i = 0; i < n; ++i) out.push_back(uniform(rng, 0, kVocab - 1));
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> all;

  Workload decode;
  decode.name = "decode-opal";
  decode.kind = Kind::kDecode;
  decode.engine = scheme_mx_opal(4, 4, 7, /*log2_softmax=*/true);
  decode.ttft_tail_pct = 90.0;  // ~13 rounds of 8 requests in 40 s
  all.push_back(decode);

  Workload prefix;
  prefix.name = "prefix-owq";
  prefix.kind = Kind::kPrefix;
  prefix.engine = scheme_owq(4);
  prefix.prefix_cache = true;
  prefix.pool_sequences = 6.0;
  prefix.ttft_tail_pct = 95.0;  // ~32 rounds of 8 requests in 40 s
  all.push_back(prefix);

  for (Workload& w : all) {
    w.engine.max_seq_len = kMaxSeqLen;
    w.engine.kv_mode = KvQuantMode::kInt8;
    w.engine.kv_block_size = 16;
  }
  return all;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

}  // namespace

std::size_t RequestStream::round_documents(std::uint64_t k) {
  const std::size_t doc = kRoundDocuments[k % kRound];
  return doc < 4 ? doc : doc + (k / kRound) % 4;
}

ModelConfig bench_model() {
  return scaled_for_eval(llama2_7b(), 256, 4, kVocab);
}

ServingConfig Workload::serving_config() const {
  ServingConfig cfg;
  cfg.max_batch = kClients;
  cfg.n_threads = kDecodeWorkers;
  cfg.prefill_chunk_tokens = kPrefillChunk;
  cfg.enable_prefix_cache = prefix_cache;
  cfg.scheduler = std::make_shared<FifoScheduler>();
  return cfg;
}

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

RequestStream::RequestStream(const Workload& workload, std::uint64_t seed)
    : kind_(workload.kind), seed_(seed) {
  if (kind_ == Kind::kPrefix) {
    CounterRng rng = substream(seed_, ~0ULL);
    documents_.resize(kDocuments);
    for (auto& doc : documents_) append_tokens(rng, kDocumentTokens, doc);
  }
}

Request RequestStream::next() {
  const std::uint64_t k = count_++;
  CounterRng rng = substream(seed_, k);
  Request req;
  switch (kind_) {
    case Kind::kDecode:
      // Short unshared prompt, long greedy answer.
      append_tokens(rng, uniform(rng, 16, 32), req.prompt);
      req.max_new_tokens = 256;
      break;
    case Kind::kPrefix: {
      // One shared document plus a private question, short greedy answer.
      req.prompt = documents_[round_documents(k)];
      append_tokens(rng, kQuestionTokens, req.prompt);
      req.max_new_tokens = 8;
      break;
    }
  }
  return req;
}

}  // namespace servebench
