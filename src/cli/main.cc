#include "cli/cli.hh"

int main(int argc, char** argv) { return g5r::cli::g5rMain(argc, argv); }
