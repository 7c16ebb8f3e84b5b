#include "core/serialization.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/string_util.h"

namespace crowdfusion::core {

using common::Status;

namespace {

constexpr char kJointHeader[] = "crowdfusion-joint v1";
constexpr char kFactsHeader[] = "crowdfusion-facts v1";

bool IsCommentOrBlank(const std::string& line) {
  const std::string trimmed = common::Trim(line);
  return trimmed.empty() || trimmed[0] == '#';
}

}  // namespace

Status SaveJointDistribution(const JointDistribution& joint,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  out << kJointHeader << "\n";
  out << "facts " << joint.num_facts() << "\n";
  std::string prob;
  for (const auto& entry : joint.entries()) {
    prob.clear();
    common::AppendDouble17g(entry.prob, &prob);
    out << "entry " << entry.mask << " " << prob << "\n";
  }
  out.close();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

common::Result<JointDistribution> LoadJointDistribution(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open: " + path);
  std::string line;
  if (!std::getline(in, line) || common::Trim(line) != kJointHeader) {
    return Status::InvalidArgument("missing joint header in " + path);
  }
  int num_facts = -1;
  std::vector<JointDistribution::Entry> entries;
  while (std::getline(in, line)) {
    if (IsCommentOrBlank(line)) continue;
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == "facts") {
      fields >> num_facts;
      if (!fields) return Status::InvalidArgument("bad facts line: " + line);
    } else if (keyword == "entry") {
      JointDistribution::Entry entry;
      fields >> entry.mask >> entry.prob;
      if (!fields) return Status::InvalidArgument("bad entry line: " + line);
      entries.push_back(entry);
    } else {
      return Status::InvalidArgument("unknown keyword: " + keyword);
    }
  }
  if (num_facts < 0) {
    return Status::InvalidArgument("joint file has no facts line");
  }
  return JointDistribution::FromEntries(num_facts, std::move(entries),
                                        /*normalize=*/false,
                                        /*tolerance=*/1e-9);
}

Status SaveFactSet(const FactSet& facts, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  out << kFactsHeader << "\n";
  for (const Fact& fact : facts.facts()) {
    if (fact.subject.find('\t') != std::string::npos ||
        fact.predicate.find('\t') != std::string::npos ||
        fact.object.find('\t') != std::string::npos) {
      return Status::InvalidArgument(
          "fact fields must not contain tab characters: " + fact.ToString());
    }
    out << fact.subject << '\t' << fact.predicate << '\t' << fact.object
        << '\n';
  }
  out.close();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

common::Result<FactSet> LoadFactSet(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open: " + path);
  std::string line;
  if (!std::getline(in, line) || common::Trim(line) != kFactsHeader) {
    return Status::InvalidArgument("missing facts header in " + path);
  }
  FactSet facts;
  while (std::getline(in, line)) {
    if (IsCommentOrBlank(line)) continue;
    const auto fields = common::Split(line, '\t');
    if (fields.size() != 3) {
      return Status::InvalidArgument("bad fact line: " + line);
    }
    facts.Add({fields[0], fields[1], fields[2]});
  }
  return facts;
}

}  // namespace crowdfusion::core
