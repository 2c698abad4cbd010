//===- frontend/Frontend.cpp -----------------------------------------------===//

#include "frontend/Frontend.h"

#include "support/Files.h"

using namespace gilr;
using namespace gilr::frontend;

std::string gilr::frontend::moduleNameFromPath(const std::string &Path) {
  std::size_t Slash = Path.find_last_of("/\\");
  std::string Base =
      Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  const std::string Ext = ".gilr";
  if (Base.size() > Ext.size() &&
      Base.compare(Base.size() - Ext.size(), Ext.size(), Ext) == 0)
    Base.resize(Base.size() - Ext.size());
  return Base;
}

ParseResult gilr::frontend::parseFile(const std::string &Path,
                                     std::string *TextOut) {
  std::string Local;
  std::string &Text = TextOut ? *TextOut : Local;
  if (!files::readFile(Path, Text, ".gilr module")) {
    Text.clear();
    ParseResult R;
    analysis::Diagnostic D;
    D.Code = analysis::code::FrontendError;
    D.Sev = analysis::Severity::Error;
    D.Message = "cannot read '" + Path + "'";
    D.File = Path;
    R.Diags.push_back(std::move(D));
    return R;
  }
  return parseString(Path, Text);
}
