// Web-object catalog modelled on the paper's testbed content (§7 setup):
// "10K+ objects with sizes 1K-442KB (median 46KB)", organised into pages
// (an HTML document plus embedded objects) like the university websites the
// authors crawled.

#ifndef SRC_WORKLOAD_OBJECT_CATALOG_H_
#define SRC_WORKLOAD_OBJECT_CATALOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/payload.h"
#include "src/sim/random.h"

namespace workload {

struct WebObject {
  std::string url;
  std::size_t size = 0;
  std::string content_type;
};

struct Page {
  std::string html_url;
  std::vector<std::string> embedded;  // Object URLs the page references.
};

struct CatalogConfig {
  std::size_t objects = 10'000;
  std::size_t pages = 400;
  std::size_t min_size = 1'000;
  std::size_t max_size = 442'000;
  std::size_t median_size = 46'000;
  double sigma = 1.1;  // Log-normal spread.
  int min_embedded = 2;
  int max_embedded = 12;
};

class ObjectCatalog {
 public:
  // An object's body as two pieces: the URL tag it starts with, so responses
  // are distinguishable in tests, and the filler bytes after it, a slice of
  // one buffer that every body shares.
  struct Body {
    std::string tag;
    net::Payload filler;
  };

  ObjectCatalog(sim::Rng& rng, CatalogConfig config = {});

  const WebObject* Find(const std::string& url) const;
  Body BodyOf(const WebObject& object) const;

  const std::vector<WebObject>& objects() const { return objects_; }
  const std::vector<Page>& pages() const { return pages_; }
  const Page& PageAt(std::size_t i) const { return pages_[i % pages_.size()]; }

  std::size_t MedianSize() const;

 private:
  std::vector<WebObject> objects_;
  std::vector<Page> pages_;
  std::unordered_map<std::string, std::size_t> by_url_;
  net::Payload filler_;  // max_size bytes.
};

}  // namespace workload

#endif  // SRC_WORKLOAD_OBJECT_CATALOG_H_
