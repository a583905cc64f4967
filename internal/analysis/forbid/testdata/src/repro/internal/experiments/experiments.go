package experiments // want "package is forbidden here: the paper flow has one owner"

func Run() {}
